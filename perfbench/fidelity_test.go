package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetis/internal/scenario"
)

// TestReplayFidelity pins that the benchmark times the program users run: at
// golden scale, the table the benchmark builds for each workload's spec is
// byte-identical to what the scenario harness (scenario.RunEngine, or the
// fleet path for sharded specs) produces, whether or not the replay is
// traced.
func TestReplayFidelity(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			spec, err := w.spec(7, true)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scenario.RunEngine(spec, w.engine, scenario.Options{Stream: w.stream})
			if err != nil {
				t.Fatal(err)
			}
			var first *replayResult
			for _, traced := range []bool{false, true} {
				got, err := replaySpec(w, spec, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if got.Table != want.CSV() {
					t.Errorf("traced=%v: replay table differs from the scenario harness's\n got:\n%s\nwant:\n%s", traced, got.Table, want.CSV())
				}
				if err := checkReplay(got, got.Offered, first); err != nil {
					t.Errorf("traced=%v: %v", traced, err)
				}
				first = got
			}
		})
	}
}

func TestTracedReplayReportsLayers(t *testing.T) {
	w, err := workloadByName("fleet-mix")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := w.spec(1, true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := replaySpec(w, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"fleet.prepare_s", "fleet.route_s", "parallelizer.plan_s", "profile.fit_s", "workload.trace_s", "metrics.report_s"} {
		if r.Layers[k] <= 0 {
			t.Errorf("%s = %g, want > 0", k, r.Layers[k])
		}
	}
	for k := range r.Layers {
		if _, ok := layerUnits[k]; !ok {
			t.Errorf("replay reports %s, which has no unit", k)
		}
	}
	if len(r.Spans) == 0 || r.Spans[0].Name != "replay" {
		t.Fatalf("spans = %+v, want a replay root first", r.Spans)
	}
	for _, s := range r.Spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func TestCheckReplay(t *testing.T) {
	ok := &replayResult{Offered: 10, Completed: 9, Dropped: 1, Events: 50, TableSHA: "a"}
	cases := []struct {
		name  string
		r     replayResult
		first *replayResult
		want  string
	}{
		{"first replay", *ok, nil, ""},
		{"matching repeat", *ok, ok, ""},
		{"other trace", replayResult{Offered: 11, Completed: 11}, nil, "trace has 10"},
		{"conservation", replayResult{Offered: 10, Completed: 8}, nil, "conservation"},
		{"progress", replayResult{Offered: 10, Completed: 8, Queued: 2}, nil, "progress"},
		{"events differ", replayResult{Offered: 10, Completed: 10, Events: 51, TableSHA: "a"}, ok, "determinism"},
		{"table differs", replayResult{Offered: 10, Completed: 10, Events: 50, TableSHA: "b"}, ok, "determinism"},
		{"sim differs", replayResult{Offered: 10, Completed: 10, Events: 50, TableSHA: "a", Sim: simStats{TTFTP99: 1}}, ok, "determinism"},
	}
	for _, c := range cases {
		err := checkReplay(&c.r, 10, c.first)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestTallyCountsFailedReplays(t *testing.T) {
	runs := []replayRun{
		{res: &replayResult{Dropped: 2, Queued: 0}},
		{err: errors.New("killed")},
	}
	attempted, failed, correct := tally(runs, 10)
	if attempted != 20 || failed != 12 || correct {
		t.Errorf("tally = (%d, %d, %v), want (20, 12, false)", attempted, failed, correct)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"hetis/internal/engine.(*hetisInstance).step":   "engine",
		"hetis/internal/lp.(*Solver).Solve.func1":       "lp",
		"hetis/internal/sweep/pool.Each.func1":          "other",
		"hetis/internal/sim.(*Queue[go.shape.int]).Pop": "sim",
	}
	for fn, want := range cases {
		if got, ok := layerOf(fn); !ok || got != want {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := layerOf("runtime.mallocgc"); ok {
		t.Error("runtime.mallocgc attributed to a layer")
	}
}

// TestMetricsMatchBenchmarkJSON pins that the benchmark reports exactly the
// metrics BENCHMARK.json declares, with the declared units: the end-to-end
// set with tracing off, the per-layer set with it on.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	ok := replayRun{res: &replayResult{RunS: 1, Events: 10, Tokens: 10}}
	e2e, _ := endToEnd([]replayRun{ok})
	layer := layerMetrics([]replayRun{ok}, []replayRun{ok})
	for _, c := range []struct {
		kind string
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{{"end_to_end", e2e, decl.EndToEnd}, {"per_layer", layer, decl.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: benchmark reports %d metrics, BENCHMARK.json declares %d", c.kind, len(c.got), len(c.want))
		}
		for _, w := range c.want {
			if m, ok := c.got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("%s: %s reported as %+v (present %v), declared unit %q", c.kind, w.Name, m, ok, w.Unit)
			}
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	tr := replayRun{res: &replayResult{Traced: true, CPU: map[string]float64{"lp": 1, "engine": 2, "runtime": 0.5}}}
	m := layerMetrics(nil, []replayRun{tr, tr})
	var sum float64
	for _, l := range layers {
		sum += m[l+".cpu_frac"].Value
	}
	if math.Abs(sum-1) > 1e-12 || m["engine.cpu_frac"].Value != 2/3.5 {
		t.Errorf("cpu shares sum to %g (engine %g), want 1 (engine %g)", sum, m["engine.cpu_frac"].Value, 2/3.5)
	}
}

// TestSpawnKillsStalledReplay pins the livelock guard: a replay still
// running at its workload's wall-clock limit is killed and reported failed.
func TestSpawnKillsStalledReplay(t *testing.T) {
	exe := filepath.Join(t.TempDir(), "stall.sh")
	if err := os.WriteFile(exe, []byte("#!/bin/sh\nexec sleep 30\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r := spawn(exe, benchWorkload{name: "stall", limit: 200 * time.Millisecond}, 1, false)
	if r.err == nil || !strings.Contains(r.err.Error(), "livelock guard") {
		t.Errorf("spawn error = %v, want the livelock guard", r.err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("spawn returned after %s, want soon after the 200ms limit", d)
	}
}
