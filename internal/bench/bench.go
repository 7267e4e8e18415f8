// Package bench is the simulator's perf-trajectory harness: it times the
// canonical scenario suite (every registered scenario × every engine the
// scenario names) plus a set of micro-benchmarks, and emits a schema'd
// BENCH.json so wall-clock, events/sec, allocation rates, and LP-solver
// work are tracked across commits instead of anecdotes.
//
// Measurements isolate serving: traces are generated and engines built
// (plans and profile fits shared through the sweep cache) before the
// clock starts, and each (scenario, engine) pair keeps the best of
// Options.Repeat runs. Runs are deterministic, so repeats only shave
// scheduler noise — every repeat executes the identical event sequence.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"hetis/internal/metrics"
	"hetis/internal/scenario"
	"hetis/internal/sweep"
)

// Options tunes a harness run.
type Options struct {
	// Scenarios names the registered scenarios to measure; empty means
	// every suite scenario (scenario.SuiteNames — heavy scenarios like
	// megascale run when named explicitly). The selection is always
	// sorted, so the report layout is deterministic regardless of input
	// order.
	Scenarios []string
	// Quick quarters trace durations, like scenario.Options.Quick — the CI
	// smoke setting.
	Quick bool
	// Repeat is how many times each (scenario, engine) pair runs; the best
	// wall-clock is kept (default 1).
	Repeat int
	// Stream measures the suite through streaming sinks (and no trace log)
	// instead of the default exact recorder, so heavy scenarios stay
	// cheap. Suites measured with different sinks are not comparable as
	// baselines.
	Stream bool
	// NoWarm disables the dispatchers' LP warm-start layer for the suite
	// runs — the pre-warm-start solver behavior. Decisions and event
	// counts are identical either way, so a NoWarm report is the natural
	// baseline for measuring the warm-start optimization.
	NoWarm bool
	// SkipMicro omits the micro-benchmarks (they add a few seconds).
	SkipMicro bool
	// SkipSinks omits the exact-vs-streaming sink comparison.
	SkipSinks bool
	// SinkScenario names the scenario the sink comparison measures
	// (default megascale — the scenario built to show the bound).
	SinkScenario string
	// SkipFleet omits the fleet shard-scaling section.
	SkipFleet bool
	// FleetScenario names the sharded scenario the fleet section measures
	// (default gigascale — the scenario built to show intra-run scaling).
	FleetScenario string
	// FleetWorkers lists the shard-worker counts the fleet section sweeps
	// (default 1, 2, 4, 8). The merged output is identical at every count;
	// only the wall-clock moves.
	FleetWorkers []int
}

// Run executes the harness and assembles the report.
func Run(opts Options) (*Report, error) {
	names := append([]string(nil), opts.Scenarios...)
	if len(names) == 0 {
		names = scenario.SuiteNames()
	}
	sort.Strings(names)
	repeat := opts.Repeat
	if repeat <= 0 {
		repeat = 1
	}

	rep := &Report{
		Schema:     SchemaVersion,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      opts.Quick,
		Stream:     opts.Stream,
		NoWarm:     opts.NoWarm,
	}

	cache := sweep.NewCache()
	for _, name := range names {
		spec, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		spec = scenario.Prepare(spec, opts.Quick)
		// Sharded scenarios cannot run on the single-cluster path (the
		// trace must be routed and the shards merged), so an explicitly
		// named fleet scenario measures through the fleet runner instead.
		var results []ScenarioBench
		if spec.Sharded() {
			results, err = measureShardedScenario(spec, repeat, opts.Stream)
		} else {
			results, err = measureScenario(spec, repeat, opts.Stream, opts.NoWarm, cache)
		}
		if err != nil {
			return nil, err
		}
		rep.Suite.Scenarios = append(rep.Suite.Scenarios, results...)
	}
	for _, sb := range rep.Suite.Scenarios {
		rep.Suite.WallSeconds += sb.WallSeconds
		rep.Suite.Events += sb.Events
		rep.Suite.LPSolves += sb.LPSolves
		rep.Suite.LPSolvesAvoided += sb.LPSolvesAvoided
		rep.Suite.LP.Solves += sb.LPSolves
		rep.Suite.LP.SolvesAvoided += sb.LPSolvesAvoided
		rep.Suite.LP.IdealSolves += sb.LPIdealSolves
		rep.Suite.LP.WarmStarts += sb.LPWarmStarts
		rep.Suite.LP.Phase1Skips += sb.LPPhase1Skips
		rep.Suite.LP.PatchedRows += sb.LPPatchedRows
		rep.Suite.LP.SolveSeconds += sb.LPSolveSeconds
	}
	if rep.Suite.WallSeconds > 0 {
		rep.Suite.EventsPerSec = float64(rep.Suite.Events) / rep.Suite.WallSeconds
		rep.Suite.LP.WallShare = rep.Suite.LP.SolveSeconds / rep.Suite.WallSeconds
	}
	if rep.Suite.LP.Solves > 0 {
		rep.Suite.LP.WarmStartRate = float64(rep.Suite.LP.WarmStarts) / float64(rep.Suite.LP.Solves)
	}
	if rep.Suite.LP.IdealSolves > 0 {
		rep.Suite.LP.IdealWarmRate = float64(rep.Suite.LP.WarmStarts) / float64(rep.Suite.LP.IdealSolves)
	}
	rep.Suite.CacheHits, rep.Suite.CacheMisses = cache.Stats()

	if !opts.SkipMicro {
		rep.Micro = RunMicro()
	}
	if !opts.SkipSinks {
		name := opts.SinkScenario
		if name == "" {
			name = "megascale"
		}
		spec, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		spec = scenario.Prepare(spec, opts.Quick)
		rep.Sinks, err = measureSinks(spec, cache)
		if err != nil {
			return nil, err
		}
	}
	if !opts.SkipFleet {
		name := opts.FleetScenario
		if name == "" {
			name = "gigascale"
		}
		spec, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		spec = scenario.Prepare(spec, opts.Quick)
		workers := opts.FleetWorkers
		if len(workers) == 0 {
			workers = []int{1, 2, 4, 8}
		}
		rep.Fleet, err = measureFleet(spec, workers, repeat)
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measureScenario times every engine the spec names on the spec's trace,
// through the exact recorder or (stream) a fresh streaming sink per run.
func measureScenario(spec scenario.Spec, repeat int, stream, noWarm bool, cache *sweep.Cache) ([]ScenarioBench, error) {
	key := sweep.TraceKey{Scenario: spec.Name, Duration: spec.Duration, Seed: spec.Seed}
	reqs, err := cache.Trace(key)
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("bench: scenario %s has an empty trace", spec.Name)
	}
	cfg, err := spec.EngineConfig()
	if err != nil {
		return nil, err
	}
	horizon := scenario.MeasurementHorizon(spec.Duration) // same window as scenario.RunEngine

	var out []ScenarioBench
	for _, engName := range spec.Engines {
		sb := ScenarioBench{Scenario: spec.Name, Engine: engName}
		if stream {
			sb.Sink = "streaming"
		}
		for rep := 0; rep < repeat; rep++ {
			// Streaming sinks accumulate across runs, so each repeat gets a
			// fresh one (and therefore a fresh engine; construction stays
			// outside the measured window and the cache keeps it cheap).
			runCfg := cfg
			runCfg.DisableLPWarmStart = noWarm
			if stream {
				runCfg.Sink = metrics.NewStreamingSink(spec.SLO)
				runCfg.NoTrace = true
			}
			eng, err := cache.BuildEngine(engName, runCfg, key)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", spec.Name, engName, err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			res, err := eng.Run(reqs, horizon)
			wall := time.Since(t0).Seconds()
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", spec.Name, engName, err)
			}
			if rep == 0 || wall < sb.WallSeconds {
				sb.WallSeconds = wall
				sb.Events = res.Events
				sb.Completed = res.Completed
				sb.LPSolves = res.LPSolves
				sb.LPSolvesAvoided = res.LPSolvesAvoided
				sb.LPIdealSolves = res.LPIdealSolves
				sb.LPWarmStarts = res.LPWarmStarts
				sb.LPPhase1Skips = res.LPPhase1Skips
				sb.LPPatchedRows = res.LPPatchedRows
				if res.Events > 0 {
					sb.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(res.Events)
					sb.AllocBytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Events)
				}
			}
			// LP solve time takes its own best-of-repeat minimum: the
			// solver work is deterministic across repeats, so like the
			// wall-clock minimum this only shaves scheduler noise — but
			// the quietest run for the whole engine is not always the
			// quietest for the solver slice of it.
			if rep == 0 || res.LPSolveSeconds < sb.LPSolveSeconds {
				sb.LPSolveSeconds = res.LPSolveSeconds
			}
			// Hand the run's trace pages back to the arena pool: the next
			// repeat (and the next scenario) appends into recycled pages
			// instead of growing a fresh multi-hundred-MB log.
			res.Trace.Release()
		}
		if sb.WallSeconds > 0 {
			sb.EventsPerSec = float64(sb.Events) / sb.WallSeconds
		}
		out = append(out, sb)
	}
	return out, nil
}
