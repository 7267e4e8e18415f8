// The fleet run path: a sharded scenario routes its trace through a
// front-door router at admission time, serves each shard's slice on an
// independent engine (own calendar queue, trace arena, sink, and a seed
// split from the run seed), executes the shards concurrently on the sweep
// worker pool, and merges everything back in shard-index order. Every
// decision that could differ between executions is made before the shards
// start or after they all finish, so the merged output is byte-identical
// at any shard-worker count and any GOMAXPROCS.

package scenario

import (
	"errors"
	"fmt"

	"hetis/internal/engine"
	"hetis/internal/fleet"
	"hetis/internal/metrics"
	"hetis/internal/sweep/pool"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// fleetShard is one replica's slice of a sharded run.
type fleetShard struct {
	reqs     []workload.Request
	eng      engine.Engine   // nil when the router sent the shard nothing
	pipeline *streamPipeline // streaming runs only; built for every shard
	res      *engine.Result
	err      error
}

// FleetRun is a prepared sharded run: trace generated, routed, and one
// engine built per non-empty shard — everything except the simulation
// itself, so harnesses that time serving (internal/bench) can keep
// preparation outside the clock. A FleetRun is single-use: streaming sinks
// accumulate, so call PrepareFleet again for a repeat run.
type FleetRun struct {
	Spec       Spec // the effective (defaulted, quick-scaled) spec
	EngineName string

	reqs      []workload.Request
	shards    []*fleetShard
	streaming bool
	ran       bool
	merged    *engine.Result
}

// PrepareFleet prepares a sharded scenario for engineName: applies
// defaults and Quick scaling, validates, generates and routes the trace,
// and builds the per-shard engines. opts.Build is ignored — the sweep
// cache keys engines by (scenario, duration, seed), which cannot tell
// shards of one run apart, and each shard must plan its own sub-trace.
func PrepareFleet(spec Spec, engineName string, opts Options) (*FleetRun, error) {
	spec = Prepare(spec, opts.Quick)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !engine.Known(engineName) {
		return nil, fmt.Errorf("scenario %s: unknown engine %q", spec.Name, engineName)
	}
	return prepareFleet(spec, engineName, opts)
}

// prepareFleet is PrepareFleet after Prepare/Validate (the RunEngineSink
// entry point, which has already done both).
func prepareFleet(spec Spec, engineName string, opts Options) (*FleetRun, error) {
	if !spec.Sharded() {
		return nil, fmt.Errorf("scenario %s: not a fleet scenario (no Fleet spec)", spec.Name)
	}
	reqs, err := spec.Trace()
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("scenario %s: empty trace", spec.Name)
	}
	base, err := spec.EngineConfig()
	if err != nil {
		return nil, err
	}
	router, err := fleet.NewRouter(spec.Fleet.policy(), spec.Fleet.Shards, spec.Fleet.Weights)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	parts := router.Partition(reqs)

	f := &FleetRun{
		Spec:       spec,
		EngineName: engineName,
		reqs:       reqs,
		shards:     make([]*fleetShard, len(parts)),
		streaming:  opts.Stream,
	}
	// All shards share the pipeline shape of the whole trace (a shard that
	// happens to see one tenant still builds the mux) so the shard sinks
	// merge structurally.
	tenants := multiTenant(reqs)
	for i, part := range parts {
		sh := &fleetShard{reqs: part}
		f.shards[i] = sh
		cfg := base
		// The splittable seed mix gives every shard an independent stream
		// derived only from (run seed, shard index) — never from routing
		// outcomes or sibling shards.
		cfg.Seed = fleet.SplitSeed(spec.Seed, i)
		if opts.Stream {
			sh.pipeline = newStreamPipeline(spec.SLO, opts.Window, tenants, nil, true)
			cfg.Sink = sh.pipeline.sink
			cfg.NoTrace = true
		}
		if len(part) == 0 {
			continue // a shard the router starved has nothing to simulate
		}
		eng, err := engine.NewByName(engineName, cfg, part)
		if err != nil {
			return nil, fmt.Errorf("scenario %s/%s: shard %d/%d: %w", spec.Name, engineName, i, len(parts), err)
		}
		sh.eng = eng
	}
	return f, nil
}

// Run executes the shards on up to shardWorkers concurrent workers (0 =
// one per CPU, clamped to the shard count) and merges their results in
// shard-index order. The returned Result is the fleet-wide view; Run may
// be called once per FleetRun.
func (f *FleetRun) Run(shardWorkers int) (*engine.Result, error) {
	if f.ran {
		return nil, fmt.Errorf("scenario %s/%s: FleetRun is single-use; PrepareFleet again for a repeat", f.Spec.Name, f.EngineName)
	}
	f.ran = true
	horizon := MeasurementHorizon(f.Spec.Duration)
	pool.Each(len(f.shards), shardWorkers, func(i int) {
		sh := f.shards[i]
		if sh.eng == nil {
			return
		}
		sh.res, sh.err = sh.eng.Run(sh.reqs, horizon)
	})
	var errs []error
	for i, sh := range f.shards {
		if sh.err != nil {
			// Shard-indexed context so a bad shard is debuggable from the
			// merged error alone.
			errs = append(errs, fmt.Errorf("scenario %s/%s: shard %d/%d: %w", f.Spec.Name, f.EngineName, i, len(f.shards), sh.err))
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	f.merged = f.mergeResults()
	// Once merged, the shard engines and per-shard results are dead weight
	// (a FleetRun is single-use); drop them so a retained FleetRun costs
	// the merged result, not S copies of simulation state. Shard 0's
	// pipeline stays: the merged sinks were folded onto it and Tables
	// renders from it.
	for i, sh := range f.shards {
		sh.eng = nil
		sh.res = nil
		if i > 0 {
			sh.pipeline = nil
		}
	}
	return f.merged, nil
}

// mergeResults folds the per-shard results into the fleet-wide Result, in
// shard-index order throughout. Counters sum; Horizon is the latest shard
// horizon; the exact path concatenates recorders and k-way-merges traces
// by time. Per-device series (HeadSeries, CacheSeries, DenseTimes,
// AttnTimes) stay nil: device IDs are cluster-local and collide across
// shards, so a fleet-wide device view would attribute different shards'
// devices to one another. CacheCapacity sums to the fleet's total;
// PeakCacheUsed sums the per-shard peaks, an upper bound on the true
// fleet-wide peak (shards peak at different instants).
func (f *FleetRun) mergeResults() *engine.Result {
	out := &engine.Result{Engine: f.EngineName}
	var logs []*trace.Log
	for _, sh := range f.shards {
		if sh.res == nil {
			continue
		}
		r := sh.res
		out.CacheCapacity += r.CacheCapacity
		out.PeakCacheUsed += r.PeakCacheUsed
		out.Completed += r.Completed
		out.Evictions += r.Evictions
		out.Migrations += r.Migrations
		out.MigratedBytes += r.MigratedBytes
		out.Dropped += r.Dropped
		out.Queued += r.Queued
		out.Preempted += r.Preempted
		out.Events += r.Events
		out.LPSolves += r.LPSolves
		out.LPSolvesAvoided += r.LPSolvesAvoided
		out.LPIdealSolves += r.LPIdealSolves
		out.LPWarmStarts += r.LPWarmStarts
		out.LPPhase1Skips += r.LPPhase1Skips
		out.LPPatchedRows += r.LPPatchedRows
		out.LPSolveSeconds += r.LPSolveSeconds
		if r.Horizon > out.Horizon {
			out.Horizon = r.Horizon
		}
		if r.Trace != nil {
			logs = append(logs, r.Trace)
		}
	}
	if f.streaming {
		// Shard pipelines are same-shaped by construction; fold them onto
		// shard 0's in index order. Merge errors here mean a bug, not bad
		// input — same alpha, SLO and window everywhere — so they panic
		// rather than complicate every caller.
		base := f.shards[0].pipeline
		for i, sh := range f.shards[1:] {
			if err := metrics.MergeSinks(base.sink, sh.pipeline.sink); err != nil {
				panic(fmt.Sprintf("scenario %s/%s: merging shard %d sink: %v", f.Spec.Name, f.EngineName, i+1, err))
			}
		}
		out.Sink = base.sink
	} else {
		rec := metrics.NewRecorderCap(len(f.reqs))
		for _, sh := range f.shards {
			if sh.res != nil && sh.res.Recorder != nil {
				if err := rec.MergeSink(sh.res.Recorder); err != nil {
					panic(fmt.Sprintf("scenario %s/%s: merging recorders: %v", f.Spec.Name, f.EngineName, err))
				}
			}
		}
		out.Recorder = rec
		out.Sink = rec
		// One time-ordered fleet trace (ties break to the lower shard), then
		// the shard arenas go back to the page pool.
		out.Trace = trace.MergeByTime(logs...)
		for _, l := range logs {
			l.Release()
		}
	}
	return out
}

// Result returns the merged fleet-wide result (nil before Run succeeds).
func (f *FleetRun) Result() *engine.Result { return f.merged }

// Tables renders the merged run as the scenario row table (and the merged
// windowed series table for streaming runs with a window).
func (f *FleetRun) Tables() (rows, windows *metrics.Table, err error) {
	if f.merged == nil {
		return nil, nil, fmt.Errorf("scenario %s/%s: fleet run has no result (Run first)", f.Spec.Name, f.EngineName)
	}
	tab := &metrics.Table{Header: HeaderFor(false)}
	if f.streaming {
		p := f.shards[0].pipeline
		streamRows(tab, f.Spec, f.EngineName, f.reqs, f.merged, p, false)
		if p.windows != nil {
			windows = p.windows.Table()
		}
		return tab, windows, nil
	}
	exactRows(tab, f.Spec, f.EngineName, f.reqs, f.merged, false)
	return tab, nil, nil
}
