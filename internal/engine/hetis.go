package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"hetis/internal/dispatch"
	"hetis/internal/hardware"
	"hetis/internal/kvcache"
	"hetis/internal/metrics"
	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/profile"
	"hetis/internal/sim"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// dispatchCapacityMargin derates the dispatcher's view of per-worker cache
// capacity relative to the block manager, absorbing block-rounding slack.
const dispatchCapacityMargin = 0.9

// Hetis is the paper's serving engine: primary-worker parallelism for dense
// modules plus dynamic head-wise attention dispatch over the pooled
// low-end GPUs.
type Hetis struct {
	cfg  Config
	est  *perf.Estimator
	plan *parallelizer.Plan
	prof *profile.Profile
}

// NewHetis builds the engine from an explicit parallelization plan (use
// parallelizer.Search, or PlanForWorkload for convenience), fitting the
// cost profile on the plan's primary device.
func NewHetis(cfg Config, plan *parallelizer.Plan) (*Hetis, error) {
	return NewHetisWithProfile(cfg, plan, nil)
}

// NewHetisWithProfile builds the engine with a pre-fitted profile, skipping
// the construction-time profiling run. Profile fitting depends only on
// (model, cluster, primary device), so sweeps memoize it and share one fit
// across every engine built for the same deployment; the engine reads the
// profile but never writes it. A nil prof fits one here, like NewHetis.
func NewHetisWithProfile(cfg Config, plan *parallelizer.Plan, prof *profile.Profile) (*Hetis, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if plan == nil || len(plan.Instances) == 0 {
		return nil, fmt.Errorf("engine: hetis needs a non-empty plan")
	}
	est := perf.New(cfg.Model)
	if prof == nil {
		primary := plan.Instances[0].Stages[0].Devices[0]
		var err error
		prof, err = profile.Run(est, cfg.Cluster, primary, profile.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("engine: profiling: %w", err)
		}
	}
	return &Hetis{cfg: cfg, est: est, plan: plan, prof: prof}, nil
}

// SetProfile overrides the fitted models (used by the Fig. 16(b)
// profiling-error experiment).
func (h *Hetis) SetProfile(p *profile.Profile) { h.prof = p }

// Plan exposes the deployment plan.
func (h *Hetis) Plan() *parallelizer.Plan { return h.plan }

// PlanForWorkload runs the parallelizer on aggregate trace statistics. The
// decode-batch target adapts to what the cluster can physically cache for
// the trace's context lengths, so long-context workloads on KV-heavy models
// stay feasible.
func PlanForWorkload(cfg Config, reqs []workload.Request) (*parallelizer.Plan, error) {
	st := workload.Summarize(reqs)
	wl := parallelizer.DefaultWorkload()
	if st.Count > 0 {
		wl.AvgPrompt = max(1, int(st.MeanPrompt))
		wl.AvgOutput = max(1, int(st.MeanOutput))
		wl.AvgContext = max(1, int(st.MeanPrompt+st.MeanOutput/2))
	}
	// Upper-bound the batch target by the cache the cluster could hold
	// with one model copy resident (conservatively 60% usable for KV).
	freeBytes := float64(cfg.Cluster.TotalMemory())*(1-cfg.MemHeadroom) - float64(cfg.Model.WeightBytes())
	if freeBytes > 0 {
		maxBatch := int(0.6 * freeBytes / (float64(wl.AvgContext) * float64(cfg.Model.KVBytesPerToken())))
		if maxBatch < 4 {
			maxBatch = 4
		}
		if wl.DecodeBatch > maxBatch {
			wl.DecodeBatch = maxBatch
		}
	}
	return parallelizer.Search(cfg.Cluster, perf.New(cfg.Model), wl, parallelizer.DefaultOptions())
}

// Name implements Engine.
func (h *Hetis) Name() string { return "hetis" }

// CacheCapacity implements Engine: free memory on primaries after weights
// plus the full memory of the attention-worker pool.
func (h *Hetis) CacheCapacity() int64 {
	var total int64
	for _, in := range h.plan.Instances {
		for _, st := range in.Stages {
			free := stageFreeBytes(h.cfg, st)
			if free > 0 {
				total += free
			}
		}
		for _, id := range in.AttentionWorkers {
			total += int64(float64(h.cfg.Cluster.Device(id).Spec.MemBytes) * (1 - h.cfg.MemHeadroom))
		}
	}
	return total
}

func stageFreeBytes(cfg Config, st parallelizer.Stage) int64 {
	var mem float64
	for range st.Devices {
		mem += float64(st.Spec.MemBytes) * (1 - cfg.MemHeadroom)
	}
	weights := float64(st.Layers) * float64(cfg.Model.LayerWeightBytes())
	return int64(mem - weights)
}

// hetisInstance is the runtime of one serving instance, one replica of a
// replicaSet. A healthy run's set has exactly the plan's instances, all
// active, and behaves like the legacy loop.
type hetisInstance struct {
	eng    *Hetis
	stages []parallelizer.Stage
	links  []hardware.LinkSpec
	pool   []hardware.DeviceID

	disp *dispatch.Dispatcher
	kv   []*kvcache.Manager
	// workerDev maps dispatcher worker index to a representative device
	// (the stage's first device, or the pool device itself).
	workerDev []hardware.DeviceID
	// workerLink is the channel from the instance primary to the worker.
	workerLink []hardware.LinkSpec

	fleet *fleetCore
	// pending is the instance's single outstanding loop event (step,
	// prefill, or decode completion) — what a failure cancels.
	pending sim.Handle

	waiting *waitQueue
	running []*request
	busy    bool
	// slots is the per-request state of every admitted request, indexed by
	// the dense slot it holds (request.slot) — the same index its
	// dispatcher placement and block-manager entries live under. A slot is
	// taken from freeSlots (LIFO) at admission and returns there on finish,
	// eviction, preemption and teardown, so the table, like every slab
	// keyed by it, is bounded by the most requests held at once.
	slots     []slotState
	freeSlots []int32
	// cooling holds the migration step of requests evicted while frozen.
	// The migration cooldown is a property of the (instance, request)
	// pair: it must survive an evict/requeue on the same instance yet not
	// follow the request to a survivor after a failure.
	cooling []migMark
	// decodeSteps counts decode iterations for the rebalance cadence.
	decodeSteps int
	// pendingDelay accumulates blocking-migration time charged to the
	// next iteration.
	pendingDelay float64

	// decodeMemo caches the dense side of a decode iteration per batch
	// size. Dense-module cost is a pure function of (stage layout, batch)
	// — head placement never touches dense modules — so the memo needs no
	// invalidation; attention costs depend on the live head assignment and
	// are recomputed every iteration.
	decodeMemo map[int]*decodeCost
	// attnScratch and stillBuf are per-iteration scratch reused across
	// decode steps; overflowHit (set when anyOverflow is) is the
	// worker-indexed overflow marker that replaces a per-step map;
	// frozenBuf and victimBuf are the rebalance and memory-pressure
	// scratch.
	attnScratch []float64
	stillBuf    []*request
	overflowHit []bool
	anyOverflow bool
	frozenBuf   []bool
	victimBuf   []int

	res *Result
	cfg *Config
}

// slotState is one slot's entry in the instance's slot table.
type slotState struct {
	req *request // nil while the slot is free
	// lastMig is the decode step at which the request last migrated
	// (when migrated is set); recently migrated requests are frozen
	// against re-migration.
	lastMig  int
	migrated bool
}

// migMark is the migration step of a request evicted while frozen.
type migMark struct {
	id   int64
	step int
}

// decodeCost is the memoized dense side of one decode iteration.
type decodeCost struct {
	// denseModule is moduleLatency over per-stage dense times (the §7.3
	// DenseTimes sample); dense is the full iteration dense cost including
	// pipeline hops and the LM head.
	denseModule float64
	dense       float64
}

func (h *Hetis) newInstance(in parallelizer.Instance, fleet *fleetCore) (*hetisInstance, error) {
	cfg := h.cfg
	inst := &hetisInstance{
		eng:     h,
		stages:  in.Stages,
		pool:    in.AttentionWorkers,
		fleet:   fleet,
		waiting: newWaitQueue(fleet.ctl.tiered()),
		res:     fleet.res,
		cfg:     &h.cfg,
	}
	groupTok := cfg.Model.KVBytesPerTokenHeadGroup() * int64(cfg.Model.Layers)

	var workers []dispatch.Worker
	addWorker := func(dev hardware.DeviceID, attn profile.AttnModel, net profile.NetModel, primary bool, freeBytes int64, link hardware.LinkSpec) error {
		if freeBytes < 0 {
			freeBytes = 0
		}
		mgr, err := kvcache.NewManager(kvcache.Config{
			BlockTokens:        16,
			BytesPerGroupToken: groupTok,
			CapacityBytes:      freeBytes,
		})
		if err != nil {
			return err
		}
		inst.kv = append(inst.kv, mgr)
		inst.workerDev = append(inst.workerDev, dev)
		inst.workerLink = append(inst.workerLink, link)
		workers = append(workers, dispatch.Worker{
			ID:            dev,
			Attn:          attn,
			Net:           net,
			Primary:       primary,
			CapacityBytes: float64(mgr.CapacityBytes()) / float64(cfg.Model.Layers) * dispatchCapacityMargin,
		})
		return nil
	}

	primaryDev := in.Stages[0].Devices[0]
	for _, st := range in.Stages {
		inst.links = append(inst.links, parallelizer.StageLink(cfg.Cluster, st))
		am := h.prof.Attn[st.Devices[0]]
		// TP shards heads and cache across the stage's tensor group.
		am.A /= float64(st.TP)
		am.B /= float64(st.TP)
		if err := addWorker(st.Devices[0], am, profile.NetModel{}, true, stageFreeBytes(cfg, st), hardware.Loopback); err != nil {
			return nil, err
		}
	}
	for _, id := range in.AttentionWorkers {
		free := int64(float64(cfg.Cluster.Device(id).Spec.MemBytes) * (1 - cfg.MemHeadroom))
		link := cfg.Cluster.Link(primaryDev, id)
		if err := addWorker(id, h.prof.Attn[id], h.prof.Net[id], false, free, link); err != nil {
			return nil, err
		}
	}
	d, err := dispatch.New(cfg.Model, workers)
	if err != nil {
		return nil, err
	}
	if cfg.GreedyDispatch {
		d.SetPolicy(dispatch.PolicyGreedy)
	}
	if cfg.DisableLPWarmStart {
		d.SetWarmStart(false)
	}
	inst.disp = d
	return inst, nil
}

// Run implements Engine.
func (h *Hetis) Run(reqs []workload.Request, horizon float64) (*Result, error) {
	res, _, err := h.run(reqs, horizon)
	return res, err
}

// run is Run that also returns the replica set it served with, so tests
// can inspect the instances' final state. The plan's instances are the
// base replicas; chaos replicas beyond them reuse the plan's instance
// templates round-robin (same stages and pool, modelling identical spare
// deployments).
func (h *Hetis) run(reqs []workload.Request, horizon float64) (*Result, *replicaSet[*hetisInstance], error) {
	base := len(h.plan.Instances)
	res, f, err := runReplicas(h.cfg, h.Name(), h.CacheCapacity(), base, reqs, horizon, func(i int, fleet *fleetCore) (*hetisInstance, error) {
		return h.newInstance(h.plan.Instances[i%base], fleet)
	}, h.startSampler)
	if err != nil {
		return nil, nil, err
	}
	for _, inst := range f.replicas {
		res.LPSolves += inst.disp.LPSolves
		res.LPSolvesAvoided += inst.disp.LPSolvesAvoided
		res.LPIdealSolves += inst.disp.LPIdealSolves
		res.LPWarmStarts += inst.disp.LPWarmStarts
		res.LPPhase1Skips += inst.disp.LPPhase1Skips
		res.LPPatchedRows += inst.disp.LPPatchedRows
		res.LPSolveSeconds += inst.disp.LPSolveSeconds
	}
	return res, f, nil
}

// startSampler gives the run its per-device head and cache series and, at
// SampleEvery > 0, schedules the sampling timer over the plan's own
// instances: extra chaos replicas reuse the same devices, so sampling them
// would double-count series keys.
func (h *Hetis) startSampler(s *sim.Simulator, f *replicaSet[*hetisInstance]) {
	f.res.HeadSeries = map[hardware.DeviceID]*metrics.Series{}
	f.res.CacheSeries = map[hardware.DeviceID]*metrics.Series{}
	if h.cfg.SampleEvery <= 0 {
		return
	}
	sampled := f.replicas[:len(h.plan.Instances)]
	var sample func(s *sim.Simulator)
	sample = func(s *sim.Simulator) {
		for _, inst := range sampled {
			inst.sample(s.Now())
		}
		if s.Pending() > 0 {
			s.After(h.cfg.SampleEvery, "sample", sample)
		}
	}
	s.After(h.cfg.SampleEvery, "sample", sample)
}

// load implements replica: waiting plus running requests.
func (inst *hetisInstance) load() int { return inst.waiting.len() + len(inst.running) }

// queue implements replica.
func (inst *hetisInstance) queue() *waitQueue { return inst.waiting }

// teardown implements replica: the loop event is cancelled, and dispatch
// and KV state torn down. Every slot holder is a victim; the running ones
// hold resident KV.
func (inst *hetisInstance) teardown(s *sim.Simulator) []victim {
	if inst.busy {
		s.Cancel(inst.pending)
		inst.busy = false
	}
	resident := make([]bool, len(inst.slots))
	for _, r := range inst.running {
		resident[r.slot] = true
	}
	var victims []victim
	for slot, st := range inst.slots {
		if st.req != nil {
			victims = append(victims, victim{st.req, resident[slot]})
		}
	}
	slices.SortFunc(victims, bySeq)
	for _, v := range victims {
		inst.kvFree(int(v.r.slot))
		inst.releaseSlot(v.r)
	}
	inst.disp.Clear()
	inst.running = inst.running[:0]
	inst.pendingDelay = 0
	return victims
}

func (inst *hetisInstance) kick(s *sim.Simulator) {
	if inst.busy {
		return
	}
	inst.busy = true
	inst.pending = s.After(0, "step", inst.step)
}

// step runs one scheduling decision: prefill first (continuous batching
// admits whenever cache allows), otherwise a decode iteration.
func (inst *hetisInstance) step(s *sim.Simulator) {
	if inst.tryPrefill(s) {
		return
	}
	if inst.tryDecode(s) {
		return
	}
	inst.busy = false
}

// tryPrefill admits waiting requests within batching limits and runs one
// prefill iteration for them.
func (inst *hetisInstance) tryPrefill(s *sim.Simulator) bool {
	cfg := inst.cfg
	var admitted []*request
	tokens := 0
	for inst.waiting.len() > 0 &&
		len(admitted) < cfg.MaxPrefillRequests &&
		len(inst.running)+len(admitted) < cfg.MaxRunning {
		r := inst.waiting.peek()
		ctx := r.restartCtx
		if tokens+r.prefillLen() > cfg.MaxPrefillTokens && len(admitted) > 0 {
			break
		}
		nr := dispatch.NewRequest{ID: r.wl.ID, ContextLen: ctx}
		if !inst.underWatermark(ctx) {
			if inst.fleet.ctl.tiered() && len(admitted) == 0 && inst.preemptFor(s, r) {
				continue // retry the head waiter against the freed memory
			}
			// Leave growth slack for the running batch; admission resumes
			// when completions drain utilization below the watermark.
			if len(inst.running) == 0 && len(admitted) == 0 {
				// Nothing running to free space: admit anyway to make
				// progress (a single request must always be servable).
				if inst.disp.CanFit([]dispatch.NewRequest{nr}) {
					goto place
				}
				inst.waiting.pop()
				inst.res.Trace.Addf(s.Now(), trace.KindEviction, r.wl.ID, -1, 0, "dropped: cannot ever fit")
				inst.fleet.dropAdmitted(s, r)
				continue
			}
			break
		}
	place:
		nr.Slot = inst.acquireSlot(r)
		if _, err := inst.disp.Dispatch([]dispatch.NewRequest{nr}); err != nil {
			inst.releaseSlot(r)
			// Cannot place: if the instance is otherwise empty the request
			// can never fit — drop it; else wait for cache to free up.
			if len(inst.running) == 0 && len(admitted) == 0 && !inst.disp.CanFit([]dispatch.NewRequest{nr}) {
				inst.waiting.pop()
				inst.res.Trace.Addf(s.Now(), trace.KindEviction, r.wl.ID, -1, 0, "dropped: cannot ever fit")
				inst.fleet.dropAdmitted(s, r)
				continue
			}
			break
		}
		if !inst.kvAlloc(nr.Slot, r.wl.ID, ctx) {
			inst.disp.Remove(nr.Slot)
			inst.releaseSlot(r)
			break
		}
		inst.resumeCooldown(nr.Slot, r.wl.ID)
		inst.waiting.pop()
		admitted = append(admitted, r)
		tokens += r.prefillLen()
	}
	if len(admitted) == 0 {
		return false
	}
	prompts := make([]int, len(admitted))
	for i, r := range admitted {
		prompts[i] = r.prefillLen()
	}
	dt := inst.prefillTime(prompts, admitted) + inst.pendingDelay
	inst.pendingDelay = 0
	inst.pending = s.After(dt, "prefill-done", func(s *sim.Simulator) {
		for _, r := range admitted {
			if !inst.holds(r) {
				continue // evicted while the batch completed
			}
			if r.firstTok == 0 {
				r.firstTok = s.Now()
			}
			if r.generated == 0 {
				r.generated = 1 // prefill emits the first token
			}
			r.hauled = false
			inst.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindPrefill, Request: r.wl.ID, Value: float64(r.restartCtx)})
			if r.done() {
				inst.finishDeferred(s, r)
				continue
			}
			// Account the first generated token's KV.
			inst.extendOne(s, r)
			inst.running = append(inst.running, r)
		}
		inst.fleet.flushFinishes()
		inst.relieveOverflow(s)
		inst.step(s)
	})
	return true
}

// prefillTime is the iteration cost of prefilling the admitted prompts:
// dense + prompt attention through all stages, pipeline hops, the LM head,
// and the scatter of pool-resident KV shards.
func (inst *hetisInstance) prefillTime(prompts []int, admitted []*request) float64 {
	est := inst.eng.est
	cfg := inst.cfg
	total := 0
	for _, p := range prompts {
		total += p
	}
	var dt float64
	for k, st := range inst.stages {
		dt += parallelizer.StagePrefillTime(est, st, prompts, inst.links[k])
	}
	if len(inst.stages) > 1 {
		dt += float64(len(inst.stages)-1) * perf.P2PTime(cfg.Cluster.InterLink, cfg.Model.HiddenStateBytes(total))
	}
	last := inst.stages[len(inst.stages)-1]
	dt += est.LMHeadTime(last.Spec, len(prompts), last.TP)

	// KV scatter: shards dispatched to pool workers ship over their links
	// concurrently; the slowest leg gates the iteration.
	groupTok := cfg.Model.KVBytesPerTokenHeadGroup() * int64(cfg.Model.Layers)
	r := cfg.Model.GroupRatio()
	var maxLeg float64
	for wi := len(inst.stages); wi < inst.disp.NumWorkers(); wi++ {
		var bytes int64
		for _, req := range admitted {
			x := inst.disp.PlacementView(int(req.slot))
			if x == nil || x[wi] == 0 {
				continue
			}
			bytes += int64(x[wi]/r) * int64(req.restartCtx) * groupTok
		}
		if bytes > 0 {
			if leg := perf.P2PTime(inst.workerLink[wi], bytes); leg > maxLeg {
				maxLeg = leg
			}
		}
	}
	return dt + maxLeg
}

// decodeCostFor memoizes the dense side of a decode iteration per batch
// size; batch sizes repeat constantly across iterations, so after warmup
// the hot path is a map hit instead of re-walking the cost model.
func (inst *hetisInstance) decodeCostFor(batch int) *decodeCost {
	if c, ok := inst.decodeMemo[batch]; ok {
		return c
	}
	est := inst.eng.est
	cfg := inst.cfg
	stageTimes := make([]float64, len(inst.stages))
	var dense float64
	for k, st := range inst.stages {
		stageTimes[k] = parallelizer.StageDecodeTime(est, st, batch, inst.links[k])
		dense += stageTimes[k]
	}
	if len(inst.stages) > 1 {
		dense += float64(len(inst.stages)-1) * perf.P2PTime(cfg.Cluster.InterLink, cfg.Model.HiddenStateBytes(batch))
	}
	last := inst.stages[len(inst.stages)-1]
	dense += est.LMHeadTime(last.Spec, batch, last.TP)
	c := &decodeCost{denseModule: moduleLatency(stageTimes), dense: dense}
	if inst.decodeMemo == nil {
		inst.decodeMemo = make(map[int]*decodeCost)
	}
	inst.decodeMemo[batch] = c
	return c
}

// tryDecode runs one decode iteration over the running batch.
func (inst *hetisInstance) tryDecode(s *sim.Simulator) bool {
	if len(inst.running) == 0 {
		return false
	}
	cfg := inst.cfg
	batch := len(inst.running)

	cost := inst.decodeCostFor(batch)
	attnPerLayer := inst.disp.AttnStepTime()
	attn := float64(cfg.Model.Layers) * attnPerLayer

	// §7.3 module metrics.
	inst.res.DenseTimes = append(inst.res.DenseTimes, cost.denseModule)
	if inst.attnScratch == nil {
		inst.attnScratch = make([]float64, len(inst.stages))
	}
	for k, st := range inst.stages {
		inst.attnScratch[k] = float64(st.Layers) * attnPerLayer
	}
	inst.res.AttnTimes = append(inst.res.AttnTimes, moduleLatency(inst.attnScratch))

	dt := cost.dense + attn + inst.pendingDelay
	inst.pendingDelay = 0
	inst.pending = s.After(dt, "decode-done", func(s *sim.Simulator) {
		inst.afterDecode(s)
		inst.step(s)
	})
	return true
}

// afterDecode advances every running request by one token and runs the
// §5.3 maintenance: memory-pressure handling and compute re-balancing.
func (inst *hetisInstance) afterDecode(s *sim.Simulator) {
	cfg := inst.cfg
	// still reuses a second buffer double-swapped with running, so the
	// per-iteration batch rebuild allocates nothing once warm. The two
	// backing arrays are always distinct, preserving the original
	// semantics: evictions triggered mid-loop splice inst.running (the old
	// array) and never touch still.
	still := inst.stillBuf[:0]
	for _, r := range inst.running {
		r.generated++
		if r.done() {
			inst.finishDeferred(s, r)
			continue
		}
		inst.extendOne(s, r)
		still = append(still, r)
	}
	inst.fleet.flushFinishes()
	prev := inst.running
	inst.running = still
	prev = prev[:cap(prev)]
	for i := range prev {
		prev[i] = nil // drop stale request pointers before reuse as scratch
	}
	inst.stillBuf = prev[:0]
	inst.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindDecode, Value: float64(len(still))})

	inst.relieveOverflow(s)
	inst.decodeSteps++
	every := inst.rebalanceEvery()
	if !cfg.DisableRedispatch && len(inst.running) > 0 && inst.decodeSteps%every == 0 {
		if rd, err := inst.disp.RebalanceCompute(cfg.Theta, inst.frozenSlots(every)); err == nil && rd != nil {
			inst.applyRedispatch(s, rd)
		}
	}
	inst.trackPeak()
}

// rebalanceEvery is the decode-step cadence of compute re-balancing.
func (inst *hetisInstance) rebalanceEvery() int {
	if every := inst.cfg.RebalanceEvery; every > 0 {
		return every
	}
	return 8
}

// extendOne accounts one freshly generated token of r: context growth in
// the dispatcher (marking the workers it overflows) and in the block
// managers.
func (inst *hetisInstance) extendOne(s *sim.Simulator, r *request) {
	slot := int(r.slot)
	over, err := inst.disp.ExtendContext(slot, 1)
	if err == nil && len(over) > 0 {
		if inst.overflowHit == nil {
			inst.overflowHit = make([]bool, inst.disp.NumWorkers())
		}
		for _, w := range over {
			inst.overflowHit[w] = true
		}
		inst.anyOverflow = true
	}
	inst.kvExtend(s, slot)
}

// relieveOverflow runs memory-pressure handling on every worker extendOne
// marked, in ascending worker order.
func (inst *hetisInstance) relieveOverflow(s *sim.Simulator) {
	if !inst.anyOverflow {
		return
	}
	inst.anyOverflow = false
	for w := range inst.overflowHit {
		if inst.overflowHit[w] {
			inst.overflowHit[w] = false
			inst.handleMemoryPressure(s, w)
		}
	}
}

// acquireSlot gives r a slot from the free list, or a new one when the
// list is empty, and records r there.
func (inst *hetisInstance) acquireSlot(r *request) int {
	var slot int
	if n := len(inst.freeSlots); n > 0 {
		slot = int(inst.freeSlots[n-1])
		inst.freeSlots = inst.freeSlots[:n-1]
	} else {
		slot = len(inst.slots)
		inst.slots = append(inst.slots, slotState{})
	}
	inst.slots[slot] = slotState{req: r}
	r.slot = int32(slot)
	return slot
}

// releaseSlot returns r's slot to the free list, dropping its migration
// cooldown. The dispatcher and block managers must be done with the slot.
func (inst *hetisInstance) releaseSlot(r *request) {
	inst.slots[r.slot] = slotState{}
	inst.freeSlots = append(inst.freeSlots, r.slot)
	r.slot = -1
}

// holds reports whether r holds a slot on this instance.
func (inst *hetisInstance) holds(r *request) bool {
	return r.slot >= 0 && int(r.slot) < len(inst.slots) && inst.slots[r.slot].req == r
}

// frozen reports whether a migration at decode step `step` still freezes
// its request against re-migration, for a rebalance cadence of window.
func (inst *hetisInstance) frozen(step, window int) bool {
	return inst.decodeSteps-step < 2*window
}

// coolDown keeps the migration step of the request in slot, which is
// being evicted to this instance's queue, so its cooldown resumes if it is
// re-admitted here. Marks that no longer freeze anything are dropped.
func (inst *hetisInstance) coolDown(slot int) {
	window := inst.rebalanceEvery()
	kept := inst.cooling[:0]
	for _, m := range inst.cooling {
		if inst.frozen(m.step, window) {
			kept = append(kept, m)
		}
	}
	inst.cooling = kept
	if st := inst.slots[slot]; st.migrated && inst.frozen(st.lastMig, window) {
		inst.cooling = append(inst.cooling, migMark{id: st.req.wl.ID, step: st.lastMig})
	}
}

// resumeCooldown restores the cooling mark, if any, of request id just
// admitted into slot.
func (inst *hetisInstance) resumeCooldown(slot int, id int64) {
	for k, m := range inst.cooling {
		if m.id == id {
			inst.slots[slot].lastMig, inst.slots[slot].migrated = m.step, true
			inst.cooling = append(inst.cooling[:k], inst.cooling[k+1:]...)
			return
		}
	}
}

// underWatermark reports whether admitting ctx more tokens of full-head
// cache keeps the instance below the admission watermark.
func (inst *hetisInstance) underWatermark(ctx int) bool {
	wm := inst.cfg.AdmitWatermark
	if wm <= 0 {
		wm = 0.92
	}
	var used, capTotal float64
	for i, w := range inst.disp.Workers() {
		used += inst.disp.CacheBytes(i)
		capTotal += w.CapacityBytes
	}
	if capTotal <= 0 {
		return false
	}
	add := float64(inst.cfg.Model.Heads) * float64(ctx) *
		float64(inst.cfg.Model.KVBytesPerTokenHeadGroup()) / float64(inst.cfg.Model.GroupRatio())
	return (used+add)/capTotal <= wm
}

// kvAlloc mirrors the dispatch placement of slot into the block managers.
func (inst *hetisInstance) kvAlloc(slot int, id int64, ctx int) bool {
	x := inst.disp.PlacementView(slot)
	if x == nil {
		return false
	}
	r := inst.cfg.Model.GroupRatio()
	for i, heads := range x {
		if heads == 0 {
			continue
		}
		if err := inst.kv[i].Alloc(slot, kvcache.RequestID(id), heads/r, ctx); err != nil {
			// Roll back earlier workers.
			for j := 0; j < i; j++ {
				inst.kv[j].Free(slot)
			}
			return false
		}
	}
	return true
}

// kvExtend grows the block allocation of slot by one token on every
// worker holding it, force-evicting on block exhaustion.
func (inst *hetisInstance) kvExtend(s *sim.Simulator, slot int) {
	x := inst.disp.PlacementView(slot)
	if x == nil {
		return
	}
	for i, heads := range x {
		if heads == 0 {
			continue
		}
		for inst.kv[i].Extend(slot, 1) != nil {
			if !inst.evictOn(s, i, slot) {
				return // nothing left to evict; accounting stays best-effort
			}
		}
	}
}

// kvFree releases a slot everywhere.
func (inst *hetisInstance) kvFree(slot int) {
	for _, m := range inst.kv {
		m.Free(slot)
	}
}

// frozenSlots marks, by slot, the requests migrated within the last
// 2·window decode steps; they are exempt from further re-dispatching to
// damp ping-pong.
func (inst *hetisInstance) frozenSlots(window int) []bool {
	frozen := inst.frozenBuf[:0]
	for _, st := range inst.slots {
		frozen = append(frozen, st.migrated && inst.frozen(st.lastMig, window))
	}
	inst.frozenBuf = frozen
	return frozen
}

// handleMemoryPressure implements §5.3.2 for one exhausted worker: first
// try re-dispatching the device's newest request into cluster slack, then
// fall back to eviction. Memory pressure overrides the migration cooldown:
// relieving an exhausted device beats damping.
func (inst *hetisInstance) handleMemoryPressure(s *sim.Simulator, w int) {
	cfg := inst.cfg
	if !cfg.DisableRedispatch {
		for _, slot := range inst.newestFirst(inst.kv[w].Slots()) {
			if inst.disp.CacheBytes(w) <= inst.disp.Workers()[w].CapacityBytes {
				return
			}
			rd, err := inst.disp.RebalanceMemory(w, []int{slot})
			if err != nil || rd == nil {
				break
			}
			inst.applyRedispatch(s, rd)
		}
		if inst.disp.CacheBytes(w) <= inst.disp.Workers()[w].CapacityBytes {
			return
		}
	}
	// Eviction. Plain LIFO (baseline) picks the globally newest running
	// request; Hetis' modified LIFO picks the newest holding memory on w.
	for inst.disp.CacheBytes(w) > inst.disp.Workers()[w].CapacityBytes {
		victim := -1
		if cfg.DisableRedispatch {
			var seq int64 = -1
			for _, r := range inst.running {
				if r.seq > seq {
					seq = r.seq
					victim = int(r.slot)
				}
			}
		} else if v, ok := inst.kv[w].VictimLIFO(); ok {
			victim = v
		}
		if victim < 0 {
			return
		}
		if !inst.evict(s, victim) {
			return
		}
	}
}

// newestFirst orders slots by their requests' admission sequence, newest
// first, in a reused scratch buffer. Admission sequences are unique, so
// the order does not depend on the input order.
func (inst *hetisInstance) newestFirst(slots []int) []int {
	out := append(inst.victimBuf[:0], slots...)
	slices.SortFunc(out, func(a, b int) int {
		return cmp.Compare(inst.slots[b].req.seq, inst.slots[a].req.seq)
	})
	inst.victimBuf = out
	return out
}

// evictOn evicts the LIFO victim holding blocks on worker w, preferring a
// slot other than protect.
func (inst *hetisInstance) evictOn(s *sim.Simulator, w int, protect int) bool {
	slot, ok := inst.kv[w].VictimLIFOExcept(protect)
	return ok && inst.evict(s, slot)
}

// evict removes the request in slot from the batch and recycles it to the
// waiting queue for recomputation.
func (inst *hetisInstance) evict(s *sim.Simulator, slot int) bool {
	if slot < 0 || slot >= len(inst.slots) || inst.slots[slot].req == nil {
		return false
	}
	r := inst.slots[slot].req
	inst.disp.Remove(slot)
	inst.kvFree(slot)
	for k, rr := range inst.running {
		if rr == r {
			inst.running = append(inst.running[:k], inst.running[k+1:]...)
			break
		}
	}
	inst.coolDown(slot)
	inst.releaseSlot(r)
	r.evicted = true
	r.restartCtx = r.contextLen()
	r.hauled = false
	inst.waiting.pushFront(r)
	inst.res.Evictions++
	inst.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindEviction, Request: r.wl.ID})
	return true
}

// preemptFor evicts the cheapest strictly-lower-priority running request
// so r can admit (multi-tier chaos only): lowest priority first, newest
// within a priority. The victim requeues — preemption costs latency, not a
// completion. Returns false when no lower-priority victim exists.
func (inst *hetisInstance) preemptFor(s *sim.Simulator, r *request) bool {
	idx := -1
	for i, v := range inst.running {
		if v.prio >= r.prio {
			continue
		}
		if idx == -1 {
			idx = i
			continue
		}
		b := inst.running[idx]
		if v.prio < b.prio || (v.prio == b.prio && v.seq > b.seq) {
			idx = i
		}
	}
	if idx < 0 {
		return false
	}
	v := inst.running[idx]
	inst.running = append(inst.running[:idx], inst.running[idx+1:]...)
	inst.disp.Remove(int(v.slot))
	inst.kvFree(int(v.slot))
	inst.releaseSlot(v)
	v.evicted = true
	v.restartCtx = v.contextLen()
	v.hauled = false
	inst.waiting.push(v)
	inst.fleet.ctl.notePreempt(s, v)
	return true
}

// applyRedispatch moves block allocations to match a new placement and
// accounts the migration (overlapped on low-priority streams unless the
// blocking ablation is on).
func (inst *hetisInstance) applyRedispatch(s *sim.Simulator, rd *dispatch.Redispatch) {
	cfg := inst.cfg
	r := cfg.Model.GroupRatio()
	slot := rd.Slot
	ctx := inst.disp.ContextLen(slot)
	groupTok := cfg.Model.KVBytesPerTokenHeadGroup() * int64(cfg.Model.Layers)

	oldMap := map[int]int{}
	newMap := map[int]int{}
	for i := range rd.Old {
		if rd.Old[i] > 0 {
			oldMap[i] = rd.Old[i] / r
		}
		if rd.New[i] > 0 {
			newMap[i] = rd.New[i] / r
		}
	}
	moves, err := kvcache.PlanMigration(oldMap, newMap, ctx, groupTok)
	if err != nil {
		return
	}
	// Apply to managers: shrink sources first to free blocks, then grow
	// destinations.
	id := kvcache.RequestID(rd.Request)
	for i := range inst.kv {
		oldG, newG := oldMap[i], newMap[i]
		if newG < oldG {
			if newG == 0 {
				inst.kv[i].Free(slot)
			} else {
				_ = inst.kv[i].ShrinkGroups(slot, oldG-newG)
			}
		}
	}
	for i := range inst.kv {
		oldG, newG := oldMap[i], newMap[i]
		if newG > oldG {
			var err error
			if oldG == 0 {
				err = inst.kv[i].Alloc(slot, id, newG, ctx)
			} else {
				err = inst.kv[i].GrowGroups(slot, newG-oldG)
			}
			for errors.Is(err, kvcache.ErrNoSpace) {
				if !inst.evictOn(s, i, slot) {
					break
				}
				if oldG == 0 {
					err = inst.kv[i].Alloc(slot, id, newG, ctx)
				} else {
					err = inst.kv[i].GrowGroups(slot, newG-oldG)
				}
			}
		}
	}
	bytes := kvcache.TotalMoveBytes(moves)
	inst.slots[slot].lastMig, inst.slots[slot].migrated = inst.decodeSteps, true
	inst.res.Migrations++
	inst.res.MigratedBytes += bytes
	inst.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindRedispatch, Request: rd.Request, Value: float64(bytes)})
	if cfg.BlockingMigration && len(moves) > 0 {
		var maxLeg float64
		for _, mv := range moves {
			link := inst.cfg.Cluster.Link(inst.workerDev[mv.From], inst.workerDev[mv.To])
			if t := perf.P2PTime(link, mv.Bytes); t > maxLeg {
				maxLeg = t
			}
		}
		inst.pendingDelay += maxLeg
	}
}

// finishDeferred is finish with the sink append batched (see
// fleetCore.finishDeferred); the iteration loops use it and flush once
// per batch. The dispatcher/KV release stays inline: later requests in
// the same loop observe the freed capacity exactly as before.
func (inst *hetisInstance) finishDeferred(s *sim.Simulator, r *request) {
	inst.disp.Remove(int(r.slot))
	inst.kvFree(int(r.slot))
	inst.releaseSlot(r)
	inst.fleet.finishDeferred(s, r)
}

func (inst *hetisInstance) trackPeak() {
	var used int64
	for _, m := range inst.kv {
		used += m.UsedBytes()
	}
	if used > inst.res.PeakCacheUsed {
		inst.res.PeakCacheUsed = used
	}
}

// seriesName caches the per-device sampler series names ("heads-3",
// "cache-7"): sample runs on a timer for the whole horizon, and the small
// device IDs repeat every tick, so formatting them once is enough.
var seriesName struct {
	sync.Mutex
	heads map[int]string
	cache map[int]string
}

// sampleSeriesName returns the cached name for one sampler family,
// formatting it on first use.
func sampleSeriesName(byDev *map[int]string, prefix string, dev int) string {
	seriesName.Lock()
	defer seriesName.Unlock()
	if *byDev == nil {
		*byDev = make(map[int]string)
	}
	name, ok := (*byDev)[dev]
	if !ok {
		name = fmt.Sprintf("%s-%d", prefix, dev)
		(*byDev)[dev] = name
	}
	return name
}

// sample records per-device head counts and cache utilization (Fig. 14).
func (inst *hetisInstance) sample(now float64) {
	for i, dev := range inst.workerDev {
		hs, ok := inst.res.HeadSeries[dev]
		if !ok {
			hs = &metrics.Series{Name: sampleSeriesName(&seriesName.heads, "heads", int(dev))}
			inst.res.HeadSeries[dev] = hs
		}
		hs.Append(now, inst.disp.Heads(i))

		cs, ok := inst.res.CacheSeries[dev]
		if !ok {
			cs = &metrics.Series{Name: sampleSeriesName(&seriesName.cache, "cache", int(dev))}
			inst.res.CacheSeries[dev] = cs
		}
		cs.Append(now, inst.kv[i].Utilization()*100)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Profile returns the fitted attention/network models the engine plans
// with.
func (h *Hetis) Profile() *profile.Profile { return h.prof }
