package engine

import (
	"fmt"
	"slices"

	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/sim"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// HexGen is the parameter-splitting baseline (§7.1): a single static
// pipeline whose stages hold asymmetric layer counts balanced by device
// throughput; prefill and decode share the same workers. Its weakness is
// exactly what §2.3 describes — cache capacity is bounded by the tightest
// stage and low-end GPUs drag every dense module.
type HexGen struct {
	cfg  Config
	est  *perf.Estimator
	pipe *staticPipeline
}

// NewHexGen builds the baseline over the whole cluster.
func NewHexGen(cfg Config) (*HexGen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	est := perf.New(cfg.Model)
	pipe, err := buildStaticPipeline(cfg, est, cfg.Cluster, cfg.Cluster.DevicesByType(), 32)
	if err != nil {
		return nil, fmt.Errorf("engine: hexgen: %w", err)
	}
	return &HexGen{cfg: cfg, est: est, pipe: pipe}, nil
}

// Name implements Engine.
func (h *HexGen) Name() string { return "hexgen" }

// CacheCapacity implements Engine.
func (h *HexGen) CacheCapacity() int64 { return h.pipe.cacheCapacityBytes(h.cfg.Model) }

// Stages exposes the static layout for tests and experiments.
func (h *HexGen) Stages() []parallelizer.Stage { return h.pipe.stages }

// Run implements Engine.
func (h *HexGen) Run(reqs []workload.Request, horizon float64) (*Result, error) {
	res, _, err := runStatic(h.Name(), h.cfg, h.est, h.pipe, h.CacheCapacity(), reqs, horizon)
	return res, err
}

// runStatic is the Run body of the two static-pipeline engines: the
// shared replica run over staticRuntime replicas of one pipeline shape.
func runStatic(name string, cfg Config, est *perf.Estimator, pipe *staticPipeline, capBytes int64, reqs []workload.Request, horizon float64) (*Result, *replicaSet[*staticRuntime], error) {
	return runReplicas(cfg, name, capBytes, 1, reqs, horizon, func(_ int, fleet *fleetCore) (*staticRuntime, error) {
		rt := &staticRuntime{
			cfg:     cfg,
			est:     est,
			pipe:    pipe,
			res:     fleet.res,
			fleet:   fleet,
			waiting: newWaitQueue(fleet.ctl.tiered()),
			byID:    map[int64]*request{},
		}
		rt.stepFn = rt.step
		rt.prefillDoneFn = rt.prefillDone
		rt.decodeDoneFn = rt.decodeDone
		return rt, nil
	}, nil)
}

// staticRuntime is the colocated continuous-batching loop shared shape
// with Hetis' instance, but with token-count cache accounting and no
// dynamic dispatch. It is one replica of a replicaSet; a healthy run is a
// set of one, which behaves exactly like the original single runtime.
type staticRuntime struct {
	cfg  Config
	est  *perf.Estimator
	pipe *staticPipeline
	res  *Result

	fleet *fleetCore
	// used is this replica's cache occupancy in tokens (the pipeline shape
	// is shared; occupancy is per replica).
	used int64
	// pending is the replica's single outstanding loop event (step,
	// prefill, or decode completion) — what a failure cancels.
	pending sim.Handle

	waiting *waitQueue
	running []*request
	byID    map[int64]*request
	busy    bool

	// Cached loop callbacks and per-iteration scratch: the batching loop
	// schedules one of these every iteration, and caching the method
	// values (plus reusing the batch/prompt buffers) makes an iteration
	// allocation-free — at most one loop event is pending per replica, so
	// a single buffer per runtime is safe.
	stepFn        func(*sim.Simulator)
	prefillDoneFn func(*sim.Simulator)
	decodeDoneFn  func(*sim.Simulator)
	prefillBatch  []*request
	promptBuf     []int
}

// load implements replica: the in-system request count.
func (rt *staticRuntime) load() int { return len(rt.byID) + rt.waiting.len() }

// queue implements replica.
func (rt *staticRuntime) queue() *waitQueue { return rt.waiting }

// kick implements replica.
func (rt *staticRuntime) kick(s *sim.Simulator) {
	if rt.busy {
		return
	}
	rt.busy = true
	rt.pending = s.After(0, "hexgen-step", rt.stepFn)
}

// teardown implements replica: every admitted request is a victim, and
// the running ones hold resident KV; mid-prefill ones do not.
func (rt *staticRuntime) teardown(s *sim.Simulator) []victim {
	if rt.busy {
		s.Cancel(rt.pending)
		rt.busy = false
	}
	resident := map[int64]bool{}
	for _, r := range rt.running {
		resident[r.wl.ID] = true
	}
	victims := make([]victim, 0, len(rt.byID))
	for id, r := range rt.byID {
		victims = append(victims, victim{r, resident[id]})
	}
	slices.SortFunc(victims, bySeq)
	clear(rt.byID)
	rt.running = rt.running[:0]
	rt.used = 0
	return victims
}

func (rt *staticRuntime) step(s *sim.Simulator) {
	if rt.tryPrefill(s) {
		return
	}
	if rt.tryDecode(s) {
		return
	}
	rt.busy = false
}

func (rt *staticRuntime) tryPrefill(s *sim.Simulator) bool {
	cfg := rt.cfg
	admitted := rt.prefillBatch[:0]
	tokens := 0
	for rt.waiting.len() > 0 &&
		len(admitted) < cfg.MaxPrefillRequests &&
		len(rt.running)+len(admitted) < cfg.MaxRunning {
		r := rt.waiting.peek()
		ctx := int64(r.restartCtx)
		if rt.fleet.ctl.tiered() && rt.used+ctx > rt.pipe.tokenCap && len(admitted) == 0 {
			rt.preemptFor(s, r, ctx)
		}
		if rt.used+ctx > rt.pipe.tokenCap {
			if len(rt.running) == 0 && len(admitted) == 0 && ctx > rt.pipe.tokenCap {
				rt.waiting.pop() // can never fit
				rt.res.Trace.Addf(s.Now(), trace.KindEviction, r.wl.ID, -1, 0, "dropped: exceeds cache")
				rt.fleet.dropAdmitted(s, r)
				continue
			}
			break
		}
		if tokens+r.prefillLen() > cfg.MaxPrefillTokens && len(admitted) > 0 {
			break
		}
		rt.waiting.pop()
		rt.used += ctx
		tokens += r.prefillLen()
		admitted = append(admitted, r)
		rt.byID[r.wl.ID] = r
	}
	rt.prefillBatch = admitted
	if len(admitted) == 0 {
		return false
	}
	prompts := rt.promptBuf[:0]
	for _, r := range admitted {
		prompts = append(prompts, r.prefillLen())
	}
	rt.promptBuf = prompts
	dt := rt.pipe.prefillTime(rt.est, cfg, prompts)
	rt.pending = s.After(dt, "hexgen-prefill", rt.prefillDoneFn)
	return true
}

// prefillDone is the prefill-completion callback over the batch stashed in
// prefillBatch (only one loop event is ever pending, so the batch cannot
// be overwritten before it fires).
func (rt *staticRuntime) prefillDone(s *sim.Simulator) {
	for _, r := range rt.prefillBatch {
		if r.firstTok == 0 {
			r.firstTok = s.Now()
		}
		if r.generated == 0 {
			r.generated = 1
			rt.used++ // cache of the first generated token
		}
		r.hauled = false
		if r.done() {
			rt.finishDeferred(s, r)
		} else {
			rt.running = append(rt.running, r)
		}
	}
	rt.fleet.flushFinishes()
	rt.step(s)
}

// preemptFor evicts strictly-lower-priority running work until ctx tokens
// fit (multi-tier chaos only): the victims requeue — preemption costs
// latency, not a completion.
func (rt *staticRuntime) preemptFor(s *sim.Simulator, r *request, ctx int64) {
	f := rt.fleet
	for rt.used+ctx > rt.pipe.tokenCap {
		idx := -1
		for i, v := range rt.running {
			if v.prio >= r.prio {
				continue
			}
			if idx == -1 {
				idx = i
				continue
			}
			b := rt.running[idx]
			if v.prio < b.prio || (v.prio == b.prio && v.seq > b.seq) {
				idx = i
			}
		}
		if idx < 0 {
			return
		}
		v := rt.running[idx]
		rt.running = append(rt.running[:idx], rt.running[idx+1:]...)
		rt.used -= int64(v.contextLen())
		v.evicted = true
		v.restartCtx = v.contextLen()
		v.hauled = false
		delete(rt.byID, v.wl.ID)
		rt.waiting.push(v)
		f.ctl.notePreempt(s, v)
	}
}

func (rt *staticRuntime) tryDecode(s *sim.Simulator) bool {
	if len(rt.running) == 0 {
		return false
	}
	var ctxTokens int64
	for _, r := range rt.running {
		ctxTokens += int64(r.contextLen())
	}
	dt, dense, attn := rt.pipe.decodeTime(rt.est, rt.cfg, len(rt.running), ctxTokens)
	rt.res.DenseTimes = append(rt.res.DenseTimes, dense)
	rt.res.AttnTimes = append(rt.res.AttnTimes, attn)
	rt.pending = s.After(dt, "hexgen-decode", rt.decodeDoneFn)
	return true
}

// decodeDone is the decode-completion callback.
func (rt *staticRuntime) decodeDone(s *sim.Simulator) {
	rt.afterDecode(s)
	rt.step(s)
}

// victimIdx picks the eviction victim among running requests: globally
// newest (LIFO) normally; under multi-tier chaos, lowest priority first
// and newest within a priority.
func (rt *staticRuntime) victimIdx() int {
	best := 0
	if rt.fleet.ctl.tiered() {
		for i, r := range rt.running {
			b := rt.running[best]
			if r.prio != b.prio {
				if r.prio < b.prio {
					best = i
				}
				continue
			}
			if r.seq > b.seq {
				best = i
			}
		}
		return best
	}
	for i, r := range rt.running {
		if r.seq > rt.running[best].seq {
			best = i
		}
	}
	return best
}

func (rt *staticRuntime) afterDecode(s *sim.Simulator) {
	still := rt.running[:0]
	for _, r := range rt.running {
		r.generated++
		rt.used++
		if r.done() {
			rt.finishDeferred(s, r)
			continue
		}
		still = append(still, r)
	}
	rt.running = still
	rt.fleet.flushFinishes()
	// Cache overflow → LIFO preemption with recomputation.
	for rt.used > rt.pipe.tokenCap && len(rt.running) > 0 {
		victimIdx := rt.victimIdx()
		v := rt.running[victimIdx]
		rt.running = append(rt.running[:victimIdx], rt.running[victimIdx+1:]...)
		rt.used -= int64(v.contextLen())
		v.evicted = true
		v.restartCtx = v.contextLen()
		v.hauled = false
		rt.waiting.pushFront(v)
		delete(rt.byID, v.wl.ID)
		rt.res.Evictions++
		rt.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindEviction, Request: v.wl.ID})
	}
	if used := rt.used * rt.cfg.Model.KVBytesPerToken(); used > rt.res.PeakCacheUsed {
		rt.res.PeakCacheUsed = used
	}
}

// finishDeferred releases the replica's cache accounting and hands the
// completion to the fleet with the sink append batched (see
// fleetCore.finishDeferred); the iteration loops use it and flush once
// per batch.
func (rt *staticRuntime) finishDeferred(s *sim.Simulator, r *request) {
	rt.used -= int64(r.contextLen())
	if rt.used < 0 {
		rt.used = 0
	}
	delete(rt.byID, r.wl.ID)
	rt.fleet.finishDeferred(s, r)
}
