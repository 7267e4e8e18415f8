package bench

import (
	"fmt"
	"runtime"
	"time"

	"hetis/internal/metrics"
	"hetis/internal/scenario"
	"hetis/internal/sweep"
	"hetis/internal/trace"
)

// SinkBench is one sink-mode measurement of the sink-comparison scenario:
// the same (scenario, engine) run measured through the exact recorder
// (records plus event trace — what a golden run costs) and through the
// streaming pipeline (quantile sketches, no trace log). LiveHeapBytes is
// the post-run live-heap delta with the Result still referenced, after a
// forced GC on both sides of the run — the resident cost of having
// measured. The pair is the report's proof of the O(1)-memory claim: the
// exact side grows with the trace, the streaming side does not.
type SinkBench struct {
	Scenario string `json:"scenario"`
	Engine   string `json:"engine"`
	Sink     string `json:"sink"` // "exact" or "streaming"

	WallSeconds    float64 `json:"wall_seconds"`
	Events         uint64  `json:"events"`
	Completed      int     `json:"completed"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	LiveHeapBytes  int64   `json:"live_heap_bytes"`
}

// measureSinks runs the spec's first engine once per sink mode. The trace
// and engine construction stay outside the measured window.
func measureSinks(spec scenario.Spec, cache *sweep.Cache) ([]SinkBench, error) {
	key := sweep.TraceKey{Scenario: spec.Name, Duration: spec.Duration, Seed: spec.Seed}
	reqs, err := cache.Trace(key)
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("bench: scenario %s has an empty trace", spec.Name)
	}
	base, err := spec.EngineConfig()
	if err != nil {
		return nil, err
	}
	engName := spec.Engines[0]
	horizon := scenario.MeasurementHorizon(spec.Duration)

	var out []SinkBench
	for _, mode := range []string{"exact", "streaming"} {
		cfg := base
		if mode == "streaming" {
			cfg.Sink = metrics.NewStreamingSink(spec.SLO)
			cfg.NoTrace = true
		}
		eng, err := cache.BuildEngine(engName, cfg, key)
		if err != nil {
			return nil, fmt.Errorf("bench: sinks %s/%s: %w", spec.Name, engName, err)
		}
		// Drop pooled trace pages before the baseline: retained arena pages
		// from earlier suite runs would inflate the pre-run heap and make
		// the exact side's live-heap delta read low.
		trace.ResetPagePool()
		var before, beforeGC, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&beforeGC)
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		res, err := eng.Run(reqs, horizon)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("bench: sinks %s/%s: %w", spec.Name, engName, err)
		}
		sb := SinkBench{
			Scenario:    spec.Name,
			Engine:      engName,
			Sink:        mode,
			WallSeconds: wall,
			Events:      res.Events,
			Completed:   res.Completed,
		}
		if res.Events > 0 {
			sb.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(res.Events)
		}
		runtime.GC()
		var afterGC runtime.MemStats
		runtime.ReadMemStats(&afterGC)
		sb.LiveHeapBytes = int64(afterGC.HeapAlloc) - int64(beforeGC.HeapAlloc)
		runtime.KeepAlive(res) // the Result (records, series, trace) is the measured residue
		res.Trace.Release()
		out = append(out, sb)
	}
	return out, nil
}
