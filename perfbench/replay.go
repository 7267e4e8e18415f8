package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"time"

	"hetis/internal/engine"
	"hetis/internal/fleet"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/perf"
	"hetis/internal/profile"
	"hetis/internal/scenario"
	"hetis/internal/workload"
)

// replayResult is what one replay reports: host times, the simulated
// outcome that the output check compares across replays, and, for a traced
// replay, the per-layer figures.
type replayResult struct {
	Traced bool `json:"traced"`

	// Host seconds: before the first simulated event, inside Engine.Run /
	// FleetRun.Run, and from the first call until the table is finished.
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	WallS  float64 `json:"wall_s"`

	Offered   int      `json:"offered"`
	Completed int      `json:"completed"`
	Dropped   int      `json:"dropped"`
	Queued    int      `json:"queued"`
	Events    uint64   `json:"events"`
	Tokens    int64    `json:"tokens"`
	Sim       simStats `json:"sim"`
	TableSHA  string   `json:"table_sha"`
	Table     string   `json:"table"`

	// Per-layer counters and timings (the parent process reports them from traced
	// replays only), and, for a traced replay, CPU seconds by layer from its
	// CPU profile and its spans.
	Layers map[string]float64 `json:"layers,omitempty"`
	CPU    map[string]float64 `json:"cpu,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// simStats are the simulated-time results: identical for every replay of
// one (workload, seed), traced or not.
type simStats struct {
	AttainPct float64 `json:"attain_pct"`
	TTFTP50   float64 `json:"ttft_p50_s"`
	TTFTP99   float64 `json:"ttft_p99_s"`
	TPOTP99   float64 `json:"tpot_p99_s"`
}

// replaySpec replays an effective spec through the layers' public calls,
// timing each call with a span. A traced replay also records a CPU profile,
// runtime statistics and the sink's busy time.
func replaySpec(w benchWorkload, spec scenario.Spec, traced bool) (*replayResult, error) {
	var tr *tracer
	if traced {
		var err error
		if tr, err = startTracer(); err != nil {
			return nil, err
		}
	}
	log := newSpanLog()
	root := log.begin("replay", -1)
	out := &replayResult{Traced: traced, Layers: map[string]float64{}}
	var (
		res  *engine.Result
		tab  *metrics.Table
		reqs []workload.Request
		err  error
	)
	if spec.Sharded() {
		res, tab, err = serveFleet(w, spec, log, root, out)
	} else {
		res, tab, reqs, err = serveDirect(w, spec, log, root, out, traced)
	}
	if err != nil {
		if tr != nil {
			tr.abort()
		}
		return nil, err
	}
	out.WallS = log.end(root)
	if tr != nil {
		cpu, rt, err := tr.finish()
		if err != nil {
			return nil, err
		}
		out.CPU = cpu
		for k, v := range rt.perEvent(res.Events) {
			out.Layers[k] = v
		}
	}

	csv := tab.CSV()
	sum := sha256.Sum256([]byte(csv))
	out.Table, out.TableSHA = csv, hex.EncodeToString(sum[:])
	if reqs == nil {
		// The fleet path generates its trace inside PrepareFleet; count the
		// offered requests from a fresh, identical trace.
		if reqs, err = spec.Trace(); err != nil {
			return nil, err
		}
	}
	out.Offered = len(reqs)
	out.Completed, out.Dropped, out.Queued = res.Completed, res.Dropped, res.Queued
	out.Events = res.Events
	if res.Recorder != nil {
		out.Sim, out.Tokens = exactStats(res.Recorder, spec.SLO, len(reqs))
	}

	if traced {
		if spec.Sharded() {
			if err := fleetProbes(w, spec, log, out); err != nil {
				return nil, err
			}
		}
		out.Layers["workload.requests"] = float64(len(reqs))
		out.Layers["sim.events"] = float64(res.Events)
		out.Layers["engine.run_s"] = out.RunS
		out.Layers["engine.completed"] = float64(res.Completed)
		out.Layers["engine.dropped"] = float64(res.Dropped)
		out.Layers["engine.queued"] = float64(res.Queued)
		out.Layers["engine.decoded_tokens"] = float64(out.Tokens)
		out.Layers["dispatch.migrations"] = float64(res.Migrations)
		out.Layers["dispatch.migrated_mb"] = float64(res.MigratedBytes) / (1 << 20)
		out.Layers["lp.solves"] = float64(res.LPSolves)
		out.Layers["lp.solves_avoided"] = float64(res.LPSolvesAvoided)
		if n := res.LPSolves + res.LPSolvesAvoided; n > 0 {
			out.Layers["lp.avoided_frac"] = float64(res.LPSolvesAvoided) / float64(n)
		}
		out.Layers["lp.ideal_solves"] = float64(res.LPIdealSolves)
		out.Layers["lp.warm_starts"] = float64(res.LPWarmStarts)
		out.Layers["lp.solve_s"] = res.LPSolveSeconds
		out.Layers["kvcache.evictions"] = float64(res.Evictions)
		if res.CacheCapacity > 0 {
			out.Layers["kvcache.peak_used_frac"] = float64(res.PeakCacheUsed) / float64(res.CacheCapacity)
		}
		out.Layers["trace.records"] = float64(res.Trace.Len())
		out.Spans = log.spans
	}
	return out, nil
}

// serveDirect replays an unsharded spec by calling each layer in turn:
// trace generation, planning and profile fit (Hetis), engine construction,
// the run, and the table from the run's sinks.
func serveDirect(w benchWorkload, spec scenario.Spec, log *spanLog, root int, out *replayResult, traced bool) (*engine.Result, *metrics.Table, []workload.Request, error) {
	sp := log.begin("workload.trace", root)
	reqs, err := spec.Trace()
	out.Layers["workload.trace_s"] = log.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(reqs) == 0 {
		return nil, nil, nil, fmt.Errorf("workload %s: empty trace", w.name)
	}
	m, err := model.ByName(spec.Model)
	if err != nil {
		return nil, nil, nil, err
	}
	cluster, err := scenario.ClusterByName(spec.Cluster)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := engine.DefaultConfig(m, cluster)

	// The sinks the scenario harness would build: the exact recorder with
	// the event trace on, or streaming sketches (split per tenant for a
	// multi-tenant trace) with it off. The counting wrapper supplies decoded
	// tokens where no records are kept, and the sink's busy time when traced.
	var (
		rec     *metrics.Recorder
		agg     *metrics.StreamingSink
		mux     *metrics.TenantMux
		counter *countingSink
	)
	if w.stream {
		agg = metrics.NewStreamingSink(spec.SLO)
		var sink metrics.Sink = agg
		if multiTenant(reqs) {
			mux = metrics.NewTenantMux(agg, func(string) metrics.Sink { return metrics.NewStreamingSink(spec.SLO) })
			sink = mux
		}
		counter = &countingSink{inner: sink, timed: traced,
			ttft: make([]float32, 0, len(reqs)), tpot: make([]float32, 0, len(reqs))}
		cfg.Sink = counter
		cfg.NoTrace = true
	} else {
		rec = metrics.NewRecorderCap(len(reqs))
		cfg.Sink = rec
		if traced {
			counter = &countingSink{inner: rec, timed: true}
			cfg.Sink = counter
		}
	}

	var eng engine.Engine
	if w.engine == "hetis" {
		sp = log.begin("parallelizer.plan", root)
		plan, err := engine.PlanForWorkload(cfg, reqs)
		out.Layers["parallelizer.plan_s"] = log.end(sp)
		if err != nil {
			return nil, nil, nil, err
		}
		sp = log.begin("profile.fit", root)
		primary := plan.Instances[0].Stages[0].Devices[0]
		prof, err := profile.Run(perf.New(cfg.Model), cfg.Cluster, primary, profile.DefaultOptions())
		out.Layers["profile.fit_s"] = log.end(sp)
		if err != nil {
			return nil, nil, nil, err
		}
		sp = log.begin("engine.build", root)
		eng, err = engine.NewHetisWithProfile(cfg, plan, prof)
		log.end(sp)
		if err != nil {
			return nil, nil, nil, err
		}
	} else {
		sp = log.begin("engine.build", root)
		eng, err = engine.NewByName(w.engine, cfg, reqs)
		log.end(sp)
		if err != nil {
			return nil, nil, nil, err
		}
	}

	sp = log.begin("engine.run", root)
	out.SetupS = log.spans[sp].Start
	res, err := eng.Run(reqs, scenario.MeasurementHorizon(spec.Duration))
	out.RunS = log.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}

	sp = log.begin("metrics.report", root)
	tab := &metrics.Table{Header: scenario.HeaderFor(false)}
	if w.stream {
		var view metrics.Sink = agg
		if mux != nil {
			view = mux
		}
		streamRows(tab, spec, w.engine, reqs, res, view, mux)
	} else {
		exactRows(tab, spec, w.engine, reqs, res, rec)
	}
	out.Layers["metrics.report_s"] = log.end(sp)

	// The engine reports the injected sink; the scenario path's result
	// carries the exact recorder.
	res.Recorder = rec
	if counter != nil {
		out.Layers["metrics.observes"] = float64(counter.observes)
		out.Layers["metrics.observe_s"] = counter.busy.Seconds()
	}
	if w.stream {
		slices.Sort(counter.ttft)
		slices.Sort(counter.tpot)
		out.Sim = simStats{
			AttainPct: 100 * float64(agg.Snapshot().Attained) / float64(len(reqs)),
			TTFTP50:   percentile(counter.ttft, 0.50),
			TTFTP99:   percentile(counter.ttft, 0.99),
			TPOTP99:   percentile(counter.tpot, 0.99),
		}
		out.Tokens = counter.tokens
	}
	return res, tab, reqs, nil
}

// serveFleet replays a sharded spec through the scenario fleet path:
// PrepareFleet (trace, routing, one engine per non-empty shard), FleetRun.Run
// on one worker, and FleetRun.Tables. Shards run one after another: on a
// host with few cores, concurrent shard workers measure the scheduler as
// much as the program, and the merged output is the same at any worker
// count.
func serveFleet(w benchWorkload, spec scenario.Spec, log *spanLog, root int, out *replayResult) (*engine.Result, *metrics.Table, error) {
	sp := log.begin("fleet.prepare", root)
	fr, err := scenario.PrepareFleet(spec, w.engine, scenario.Options{Stream: w.stream})
	out.Layers["fleet.prepare_s"] = log.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = log.begin("fleet.run", root)
	out.SetupS = log.spans[sp].Start
	res, err := fr.Run(1)
	out.RunS = log.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = log.begin("metrics.report", root)
	tab, _, err := fr.Tables()
	out.Layers["metrics.report_s"] = log.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if res.Recorder != nil {
		out.Layers["metrics.observes"] = float64(res.Recorder.Count())
	}
	return res, tab, nil
}

// fleetProbes times, after a traced fleet replay and outside its clock and
// profile, the calls PrepareFleet makes internally: trace generation,
// Router.Partition, and one plan and profile fit per non-empty shard. They
// repeat the replay's own calls on the same inputs.
func fleetProbes(w benchWorkload, spec scenario.Spec, log *spanLog, out *replayResult) error {
	root := log.begin("probe", -1)
	defer log.end(root)
	sp := log.begin("workload.trace", root)
	reqs, err := spec.Trace()
	out.Layers["workload.trace_s"] = log.end(sp)
	if err != nil {
		return err
	}
	policy := spec.Fleet.Policy
	if policy == "" {
		policy = fleet.PolicyWeighted
	}
	router, err := fleet.NewRouter(policy, spec.Fleet.Shards, spec.Fleet.Weights)
	if err != nil {
		return err
	}
	sp = log.begin("fleet.route", root)
	parts := router.Partition(reqs)
	out.Layers["fleet.route_s"] = log.end(sp)

	largest := 0
	for _, p := range parts {
		largest = max(largest, len(p))
	}
	out.Layers["fleet.shard_imbalance"] = float64(largest) * float64(len(parts)) / float64(len(reqs))

	if w.engine != "hetis" {
		return nil
	}
	m, err := model.ByName(spec.Model)
	if err != nil {
		return err
	}
	cluster, err := scenario.ClusterByName(spec.Cluster)
	if err != nil {
		return err
	}
	cfg := engine.DefaultConfig(m, cluster)
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		sp = log.begin("parallelizer.plan", root)
		plan, err := engine.PlanForWorkload(cfg, part)
		out.Layers["parallelizer.plan_s"] += log.end(sp)
		if err != nil {
			return err
		}
		sp = log.begin("profile.fit", root)
		_, err = profile.Run(perf.New(cfg.Model), cfg.Cluster, plan.Instances[0].Stages[0].Devices[0], profile.DefaultOptions())
		out.Layers["profile.fit_s"] += log.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// exactStats reads the simulated results from an exact recorder: SLO
// attainment over all offered requests (dropped and unfinished ones miss),
// latency percentiles over completed ones, and decoded tokens.
func exactStats(rec *metrics.Recorder, slo metrics.SLOTarget, offered int) (simStats, int64) {
	ttft, tpot := rec.TTFTSummary(), rec.TPOTSummary()
	var tokens int64
	for _, r := range rec.Records() {
		if !r.Dropped {
			tokens += int64(r.OutputLen)
		}
	}
	return simStats{
		AttainPct: 100 * float64(rec.Attained(slo)) / float64(offered),
		TTFTP50:   ttft.P50,
		TTFTP99:   ttft.P99,
		TPOTP99:   tpot.P99,
	}, tokens
}

// percentile interpolates the p-quantile of an ascending slice the way
// metrics.Percentile does.
func percentile(sorted []float32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// countingSink forwards records to the run's sink, counting observes and
// decoded tokens and, when timed, the wall time spent inside the sink. With
// ttft and tpot allocated it also keeps each completed request's simulated
// latencies, so a streaming run reports exact percentiles rather than the
// sketch's bucketed ones (float32 halves what the benchmark adds to the
// run's memory).
type countingSink struct {
	inner      metrics.Sink
	timed      bool
	observes   int
	tokens     int64
	busy       time.Duration
	ttft, tpot []float32
}

func (c *countingSink) count(r metrics.RequestRecord) {
	c.observes++
	if r.Dropped {
		return
	}
	c.tokens += int64(r.OutputLen)
	if c.ttft != nil {
		c.ttft = append(c.ttft, float32(r.TTFT()))
		c.tpot = append(c.tpot, float32(r.TPOT()))
	}
}

func (c *countingSink) Observe(r metrics.RequestRecord) {
	c.count(r)
	if !c.timed {
		c.inner.Observe(r)
		return
	}
	start := time.Now()
	c.inner.Observe(r)
	c.busy += time.Since(start)
}

func (c *countingSink) ObserveBatch(recs []metrics.RequestRecord) {
	for _, r := range recs {
		c.count(r)
	}
	if !c.timed {
		metrics.ObserveAll(c.inner, recs)
		return
	}
	start := time.Now()
	metrics.ObserveAll(c.inner, recs)
	c.busy += time.Since(start)
}

func (c *countingSink) Snapshot() metrics.Snapshot { return c.inner.Snapshot() }
