// Command perfbench is the repository's benchmark. It replays one
// named workload repeatedly for a fixed wall-clock budget, each replay in
// a child process of its own (so peak RSS is per replay and a stalled
// replay can be killed), checks every replay's output, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hetis-chat --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// alternates untraced and traced replays and reports the per-layer
// metrics. See README.md for the metric and workload catalogue.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// minReplays is the fewest replays of each kind a run makes, whatever its
// budget, so the determinism check always has a repeat to compare.
const minReplays = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload to replay: hetis-chat, vllm-day or fleet-mix")
		seed    = flag.Int64("seed", 1, "trace seed (Spec.Seed)")
		seconds = flag.Float64("seconds", 10, "wall-clock budget for starting replays")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced replays")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans to")
		child   = flag.Bool("child", false, "run one replay and print its result as JSON (used by perfbench itself)")
		traced  = flag.Bool("traced", false, "with -child: trace the replay")
	)
	flag.Parse()
	if *child {
		if err := runChild(*name, *seed, *traced); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench replay:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runChild(name string, seed int64, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	spec, err := w.spec(seed, false)
	if err != nil {
		return err
	}
	res, err := replaySpec(w, spec, traced)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// replayRun is one child replay as the parent process saw it.
type replayRun struct {
	res    *replayResult
	rssMiB float64
	err    error
}

func run(name string, seed int64, seconds float64, traceMode bool, outDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	spec, err := w.spec(seed, false)
	if err != nil {
		return err
	}
	reqs, err := spec.Trace()
	if err != nil {
		return err
	}
	offered := len(reqs)
	reqs = nil // only the count is needed; free the trace before the replays
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	prov := provenance(w, seed, specDigest(spec))
	fmt.Printf("# %s\n", prov)

	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var (
		plain, traced []replayRun
		first         *replayResult // the first replay, which every repeat must match
	)
	for i := 0; ; i++ {
		r := spawn(exe, w, seed, traceMode && i%2 == 1)
		if r.err == nil {
			r.err = checkReplay(r.res, offered, first)
		}
		if r.err == nil && first == nil {
			first = r.res
		}
		if r.res != nil && r.res.Traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if r.err != nil {
			break // a failed replay ends the run; its requests count as failed
		}
		enough := len(plain) >= minReplays && (!traceMode || len(traced) >= minReplays)
		if enough && time.Now().After(deadline) {
			break
		}
	}

	all := append(append([]replayRun(nil), plain...), traced...)
	attempted, failed, correct := tally(all, offered)
	for _, r := range all {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: replay failed: %v\n", r.err)
		}
	}

	var (
		metrics map[string]metric
		samples map[string][]float64
	)
	if traceMode {
		metrics = layerMetrics(plain, traced)
		if path, err := writeSpans(outDir, w, seed, prov, traced); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else if path != "" {
			fmt.Printf("# spans: %s\n", path)
		}
	} else {
		metrics, samples = endToEnd(plain)
	}
	if len(plain) > 0 && plain[0].res != nil {
		fmt.Print(plain[0].res.Table)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %-6s", n, metrics[n].Value, metrics[n].Unit)
		if xs := samples[n]; len(xs) > 1 {
			fmt.Printf("  median of %d replays, range %.6g..%.6g", len(xs), slices.Min(xs), slices.Max(xs))
		}
		fmt.Println()
	}
	fmt.Printf("# replays: %d untraced, %d traced; correct=%v attempted=%d failed=%d\n",
		len(plain), len(traced), correct, attempted, failed)

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spawn runs one replay in a child process under the workload's wall-clock
// limit and returns its result and peak resident set.
func spawn(exe string, w benchWorkload, seed int64, traced bool) replayRun {
	ctx, cancel := context.WithTimeout(context.Background(), w.limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-traced="+strconv.FormatBool(traced))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		return replayRun{err: fmt.Errorf("replay killed after its %s wall-clock limit (livelock guard)", w.limit)}
	}
	if err != nil {
		return replayRun{err: fmt.Errorf("replay: %w", err)}
	}
	r := replayRun{res: &replayResult{}}
	if err := json.Unmarshal(stdout.Bytes(), r.res); err != nil {
		return replayRun{err: fmt.Errorf("replay output: %w", err)}
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r
}

// checkReplay is the per-replay output check: the trace the replay served
// is the one the parent process generated, every offered request is accounted for
// (completed + dropped + queued == offered), none is still queued at the
// horizon, and a repeat matches the first replay's event count, result
// table and simulated results.
func checkReplay(r *replayResult, offered int, first *replayResult) error {
	if r.Offered != offered {
		return fmt.Errorf("replay served %d requests, the trace has %d", r.Offered, offered)
	}
	if n := r.Completed + r.Dropped + r.Queued; n != offered {
		return fmt.Errorf("conservation: completed %d + dropped %d + queued %d = %d, offered %d",
			r.Completed, r.Dropped, r.Queued, n, offered)
	}
	if r.Queued != 0 {
		return fmt.Errorf("progress: %d requests still queued at the horizon", r.Queued)
	}
	switch {
	case first == nil:
	case r.Events != first.Events:
		return fmt.Errorf("determinism: %d events, first replay %d", r.Events, first.Events)
	case r.TableSHA != first.TableSHA:
		return fmt.Errorf("determinism: result table differs from the first replay's")
	case r.Sim != first.Sim:
		return fmt.Errorf("determinism: simulated results %+v differ from the first replay's %+v", r.Sim, first.Sim)
	}
	return nil
}

// tally counts operations: each offered request of each replay is one.
// A request fails if it was dropped or left queued; every request of a
// replay that errored, was killed or failed its check fails.
func tally(all []replayRun, offered int) (attempted, failed int, correct bool) {
	correct = len(all) > 0
	for _, r := range all {
		attempted += offered
		if r.err != nil {
			failed += offered
			correct = false
			continue
		}
		failed += r.res.Dropped + r.res.Queued
	}
	return attempted, failed, correct
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd reports the untraced replays' medians (host time, throughput,
// memory) and the simulated results, which every replay shares. It also
// returns the per-replay samples behind each median.
func endToEnd(plain []replayRun) (map[string]metric, map[string][]float64) {
	var wall, setup, runS, eps, tps, rss []float64
	var ref *replayResult
	for _, r := range plain {
		if r.err != nil {
			continue
		}
		if ref == nil {
			ref = r.res
		}
		wall = append(wall, r.res.WallS)
		setup = append(setup, r.res.SetupS)
		runS = append(runS, r.res.RunS)
		eps = append(eps, float64(r.res.Events)/r.res.RunS)
		tps = append(tps, float64(r.res.Tokens)/r.res.RunS)
		rss = append(rss, r.rssMiB)
	}
	m := map[string]metric{
		"wall_s":       {median(wall), "s"},
		"setup_s":      {median(setup), "s"},
		"run_s":        {median(runS), "s"},
		"events_per_s": {median(eps), "1/s"},
		"tokens_per_s": {median(tps), "1/s"},
		"peak_rss_mb":  {median(rss), "MiB"},
	}
	var sim simStats
	if ref != nil {
		sim = ref.Sim
	}
	m["sim_attain_pct"] = metric{sim.AttainPct, "%"}
	m["sim_ttft_p50_s"] = metric{sim.TTFTP50, "sim_s"}
	m["sim_ttft_p99_s"] = metric{sim.TTFTP99, "sim_s"}
	m["sim_tpot_p99_s"] = metric{sim.TPOTP99, "sim_s"}
	samples := map[string][]float64{
		"wall_s": wall, "setup_s": setup, "run_s": runS,
		"events_per_s": eps, "tokens_per_s": tps, "peak_rss_mb": rss,
	}
	return m, samples
}

// layerUnits lists every per-layer metric with its unit; a layer that does
// no work on a workload reports 0.
var layerUnits = map[string]string{
	"workload.trace_s": "s", "workload.requests": "count",
	"parallelizer.plan_s": "s", "profile.fit_s": "s",
	"fleet.route_s": "s", "fleet.prepare_s": "s", "fleet.shard_imbalance": "ratio",
	"sim.events":   "count",
	"engine.run_s": "s", "engine.completed": "count", "engine.dropped": "count",
	"engine.queued": "count", "engine.decoded_tokens": "count",
	"dispatch.migrations": "count", "dispatch.migrated_mb": "MiB",
	"lp.solves": "count", "lp.solves_avoided": "count", "lp.avoided_frac": "ratio",
	"lp.ideal_solves": "count", "lp.warm_starts": "count", "lp.solve_s": "s",
	"kvcache.evictions": "count", "kvcache.peak_used_frac": "ratio",
	"metrics.observes": "count", "metrics.observe_s": "s", "metrics.report_s": "s",
	"trace.records":            "count",
	"runtime.allocs_per_event": "count", "runtime.alloc_bytes_per_event": "B",
	"runtime.gc_cycles": "count", "runtime.gc_cpu_frac": "ratio", "runtime.peak_heap_mb": "MiB",
	"trace_overhead_frac": "ratio",
}

// layerMetrics reports the traced replays: counts from the first (every
// replay has the same), host timings as medians, and each layer's share of
// the CPU profile samples pooled over all traced replays.
func layerMetrics(plain, traced []replayRun) map[string]metric {
	m := map[string]metric{}
	for name, unit := range layerUnits {
		m[name] = metric{0, unit}
	}
	samples := map[string][]float64{}
	cpu := map[string]float64{}
	var tracedRun, plainRun []float64
	for _, r := range traced {
		if r.err != nil {
			continue
		}
		for k, v := range r.res.Layers {
			samples[k] = append(samples[k], v)
		}
		for k, v := range r.res.CPU {
			cpu[k] += v
		}
		tracedRun = append(tracedRun, r.res.RunS)
	}
	for k, vs := range samples {
		if unit, ok := layerUnits[k]; ok {
			m[k] = metric{median(vs), unit}
		}
	}
	var total float64
	for _, v := range cpu {
		total += v
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = cpu[l] / total
		}
		m[l+".cpu_frac"] = metric{share, "ratio"}
	}
	for _, r := range plain {
		if r.err == nil {
			plainRun = append(plainRun, r.res.RunS)
		}
	}
	if len(tracedRun) > 0 && len(plainRun) > 0 {
		m["trace_overhead_frac"] = metric{median(tracedRun)/median(plainRun) - 1, "ratio"}
	}
	return m
}

// median is 0 for no samples: a run whose every replay failed still prints
// its (incorrect) result line, and JSON has no NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// provenance names what produced an output: toolchain, parallelism, code
// revision, seed and the digest of the effective spec.
func provenance(w benchWorkload, seed int64, digest string) string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	rev += dirty
	return fmt.Sprintf("workload=%s seed=%d spec_sha256=%s go=%s gomaxprocs=%d nproc=%d revision=%s",
		w.name, seed, digest, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), rev)
}

// writeSpans writes the traced replays' spans as Chrome trace-event JSON
// (which Perfetto opens), one thread per replay, all sharing the id
// "<workload>/seed=<n>".
func writeSpans(dir string, w benchWorkload, seed int64, prov string, traced []replayRun) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	id := fmt.Sprintf("%s/seed=%d", w.name, seed)
	var events []event
	for i, r := range traced {
		if r.res == nil {
			continue
		}
		for _, s := range r.res.Spans {
			parent := ""
			if s.Parent >= 0 {
				parent = r.res.Spans[s.Parent].Name
			}
			events = append(events, event{Name: s.Name, Ph: "X", Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6,
				Pid: 1, Tid: i + 1, Args: map[string]any{"id": id, "parent": parent}})
		}
	}
	if len(events) == 0 {
		return "", nil
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": map[string]string{"provenance": prov}})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
