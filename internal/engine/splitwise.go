package engine

import (
	"fmt"
	"slices"

	"hetis/internal/hardware"
	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/sim"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// Splitwise is the phase-splitting baseline (§7.1): high-end GPUs form a
// dedicated prefill instance, the rest a decode pipeline, and every request
// hands its KV cache across the network between the phases. Both instances
// hold a full copy of the model — the memory inefficiency of Fig. 1(a).
type Splitwise struct {
	cfg     Config
	est     *perf.Estimator
	prefill *staticPipeline
	decode  *staticPipeline
}

// NewSplitwise plans the phase split: the top GPU tier preferably serves
// prefill alone; if the remaining devices cannot hold the model weights,
// top-tier devices move to the decode side until both instances fit (the
// prefill side always keeps at least one device).
func NewSplitwise(cfg Config) (*Splitwise, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	est := perf.New(cfg.Model)
	groups := cfg.Cluster.DevicesByType()
	if len(groups) < 2 {
		return nil, fmt.Errorf("engine: splitwise needs at least two GPU types (or split within one type)")
	}
	top := groups[0]
	rest := groups[1:]

	for keep := len(top.IDs); keep >= 1; keep /= 2 {
		prefillGroup := hardware.TypeGroup{Spec: top.Spec, IDs: top.IDs[:keep]}
		decodeGroups := append([]hardware.TypeGroup{}, rest...)
		if keep < len(top.IDs) {
			decodeGroups = append([]hardware.TypeGroup{{Spec: top.Spec, IDs: top.IDs[keep:]}}, decodeGroups...)
		}
		pre, errP := buildStaticPipeline(cfg, est, cfg.Cluster, []hardware.TypeGroup{prefillGroup}, 8)
		dec, errD := buildStaticPipeline(cfg, est, cfg.Cluster, decodeGroups, 32)
		if errP == nil && errD == nil {
			return &Splitwise{cfg: cfg, est: est, prefill: pre, decode: dec}, nil
		}
		if keep == 1 {
			if errP != nil {
				return nil, fmt.Errorf("engine: splitwise prefill side: %w", errP)
			}
			return nil, fmt.Errorf("engine: splitwise decode side: %w", errD)
		}
	}
	return nil, fmt.Errorf("engine: splitwise could not split %s", cfg.Model.Name)
}

// Name implements Engine.
func (sw *Splitwise) Name() string { return "splitwise" }

// CacheCapacity implements Engine: only the decode side hosts long-lived
// KV cache; the prefill side's space is transient and does not add serving
// capacity (§2.3).
func (sw *Splitwise) CacheCapacity() int64 { return sw.decode.cacheCapacityBytes(sw.cfg.Model) }

// PrefillStages and DecodeStages expose the layout.
func (sw *Splitwise) PrefillStages() []parallelizer.Stage { return sw.prefill.stages }

// DecodeStages exposes the decode pipeline layout.
func (sw *Splitwise) DecodeStages() []parallelizer.Stage { return sw.decode.stages }

// Run implements Engine.
func (sw *Splitwise) Run(reqs []workload.Request, horizon float64) (*Result, error) {
	res, _, err := sw.run(reqs, horizon)
	return res, err
}

// run is Run that also returns the replica set it served with. A replica
// is one whole phase-split deployment, so a failure takes down both sides
// and a scale-up adds another pair.
func (sw *Splitwise) run(reqs []workload.Request, horizon float64) (*Result, *replicaSet[*splitwiseRuntime], error) {
	return runReplicas(sw.cfg, sw.Name(), sw.CacheCapacity(), 1, reqs, horizon, func(_ int, fleet *fleetCore) (*splitwiseRuntime, error) {
		return &splitwiseRuntime{
			sw:       sw,
			res:      fleet.res,
			fleet:    fleet,
			prefillQ: newWaitQueue(fleet.ctl.tiered()),
			decodeQ:  newWaitQueue(fleet.ctl.tiered()),
			handoffs: map[int64]*request{},
		}, nil
	}, func(_ *sim.Simulator, f *replicaSet[*splitwiseRuntime]) {
		// A hauled request lands straight on the least-loaded survivor's
		// decode queue: its KV moved with it, so it skips the prefill
		// phase. With no replica serving it parks and loses the staged KV.
		f.land = func(s *sim.Simulator, r *request) {
			r.hauled = false
			i := f.leastLoaded()
			if i < 0 {
				f.parked.push(r)
				return
			}
			rt := f.replicas[i]
			rt.decodeQ.push(r)
			rt.kickDecode(s)
		}
	})
}

type splitwiseRuntime struct {
	sw  *Splitwise
	res *Result

	fleet *fleetCore

	prefillQ    *waitQueue
	prefillBusy bool
	// prefillPending is the prefill loop's single outstanding event;
	// prefillBatch the requests inside an in-flight prefill iteration.
	prefillPending sim.Handle
	prefillBatch   []*request
	// inPrefill tracks tokens resident on the prefill side.
	inPrefill int64

	// transferFree is when the prefill→decode link next frees up;
	// transfers of different requests serialize on it. Handoff events are
	// tracked in handoffGroup (with the requests in handoffs) so a failure
	// can abort the transfers in flight.
	transferFree float64
	handoffGroup sim.Group
	handoffs     map[int64]*request

	decodeQ *waitQueue
	running []*request
	// usedDecode is the decode side's cache occupancy in tokens.
	usedDecode    int64
	decodeBusy    bool
	decodePending sim.Handle
}

// load implements replica: the in-system request count.
func (rt *splitwiseRuntime) load() int {
	return rt.prefillQ.len() + len(rt.prefillBatch) + len(rt.handoffs) + rt.decodeQ.len() + len(rt.running)
}

// queue implements replica: arrivals and stolen work enter at prefill
// (decode queues stay put — their KV is resident where it is).
func (rt *splitwiseRuntime) queue() *waitQueue { return rt.prefillQ }

// kick implements replica.
func (rt *splitwiseRuntime) kick(s *sim.Simulator) { rt.kickPrefill(s) }

// teardown implements replica. Requests holding KV on the decode side
// (running or transferred) are resident; everything else — waiting,
// mid-prefill, mid-handoff — loses its progress and re-prefills.
func (rt *splitwiseRuntime) teardown(s *sim.Simulator) []victim {
	if rt.prefillBusy {
		s.Cancel(rt.prefillPending)
		rt.prefillBusy = false
	}
	if rt.decodeBusy {
		s.Cancel(rt.decodePending)
		rt.decodeBusy = false
	}
	rt.handoffGroup.CancelAll(s)

	var victims []victim
	for _, r := range rt.running {
		victims = append(victims, victim{r, true})
	}
	for rt.decodeQ.len() > 0 {
		victims = append(victims, victim{rt.decodeQ.pop(), true})
	}
	for _, r := range rt.handoffs {
		victims = append(victims, victim{r, false})
	}
	for _, r := range rt.prefillBatch {
		victims = append(victims, victim{r, false})
	}
	for rt.prefillQ.len() > 0 {
		victims = append(victims, victim{rt.prefillQ.pop(), false})
	}
	slices.SortFunc(victims, bySeq)
	rt.running = rt.running[:0]
	rt.prefillBatch = nil
	rt.handoffs = map[int64]*request{}
	rt.usedDecode = 0
	rt.inPrefill = 0
	return victims
}

func (rt *splitwiseRuntime) kickPrefill(s *sim.Simulator) {
	if rt.prefillBusy {
		return
	}
	rt.prefillBusy = true
	rt.prefillPending = s.After(0, "sw-prefill-step", rt.prefillStep)
}

func (rt *splitwiseRuntime) prefillStep(s *sim.Simulator) {
	cfg := rt.sw.cfg
	var admitted []*request
	tokens := 0
	for rt.prefillQ.len() > 0 && len(admitted) < cfg.MaxPrefillRequests {
		r := rt.prefillQ.peek()
		ctx := int64(r.restartCtx)
		if ctx > rt.sw.prefill.tokenCap {
			rt.prefillQ.pop() // cannot ever prefill
			rt.res.Trace.Addf(s.Now(), trace.KindEviction, r.wl.ID, -1, 0, "dropped: exceeds prefill cache")
			rt.fleet.dropAdmitted(s, r)
			continue
		}
		if rt.inPrefill+ctx > rt.sw.prefill.tokenCap && len(admitted) > 0 {
			break
		}
		if tokens+int(ctx) > cfg.MaxPrefillTokens && len(admitted) > 0 {
			break
		}
		rt.prefillQ.pop()
		rt.inPrefill += ctx
		tokens += int(ctx)
		admitted = append(admitted, r)
	}
	if len(admitted) == 0 {
		rt.prefillBusy = false
		return
	}
	prompts := make([]int, len(admitted))
	for i, r := range admitted {
		prompts[i] = r.restartCtx
	}
	rt.prefillBatch = admitted
	dt := rt.sw.prefill.prefillTime(rt.sw.est, cfg, prompts)
	rt.prefillPending = s.After(dt, "sw-prefill-done", func(s *sim.Simulator) {
		rt.prefillBatch = nil
		for _, r := range admitted {
			if r.firstTok == 0 {
				r.firstTok = s.Now()
			}
			if r.generated == 0 {
				r.generated = 1
			}
			rt.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindPrefill, Request: r.wl.ID, Value: float64(r.restartCtx)})
			if r.done() {
				rt.inPrefill -= int64(r.restartCtx)
				rt.fleet.finishDeferred(s, r)
				continue
			}
			rt.scheduleHandoff(s, r)
		}
		rt.fleet.flushFinishes()
		// The next prefill batch waits for this batch's KV handoffs to
		// drain the NIC: the phase split forces a full-context cache
		// transfer per request, which interferes with prefill (§2.3).
		if rt.transferFree > s.Now() {
			rt.prefillPending = s.Schedule(rt.transferFree, "sw-prefill-nic", rt.prefillStep)
			return
		}
		rt.prefillStep(s)
	})
}

// scheduleHandoff ships the request's KV cache to the decode instance over
// the cluster interconnect; transfers serialize on the link.
func (rt *splitwiseRuntime) scheduleHandoff(s *sim.Simulator, r *request) {
	m := rt.sw.cfg.Model
	bytes := int64(r.contextLen()) * m.KVBytesPerToken()
	link := rt.sw.cfg.Cluster.InterLink
	start := s.Now()
	if rt.transferFree > start {
		start = rt.transferFree
	}
	done := start + perf.P2PTime(link, bytes)
	rt.transferFree = done
	rt.res.Migrations++
	rt.res.MigratedBytes += bytes
	rt.handoffs[r.wl.ID] = r
	rt.handoffGroup.Track(s, s.Schedule(done, "sw-handoff", func(s *sim.Simulator) {
		delete(rt.handoffs, r.wl.ID)
		rt.inPrefill -= int64(r.restartCtx)
		rt.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindMigration, Request: r.wl.ID, Value: float64(bytes)})
		rt.decodeQ.push(r)
		rt.kickDecode(s)
		rt.kickPrefill(s)
	}))
}

func (rt *splitwiseRuntime) kickDecode(s *sim.Simulator) {
	if rt.decodeBusy {
		return
	}
	rt.decodeBusy = true
	rt.decodePending = s.After(0, "sw-decode-step", rt.decodeStep)
}

func (rt *splitwiseRuntime) decodeStep(s *sim.Simulator) {
	cfg := rt.sw.cfg
	dec := rt.sw.decode
	// Admit transferred requests while cache allows.
	for rt.decodeQ.len() > 0 && len(rt.running) < cfg.MaxRunning {
		r := rt.decodeQ.peek()
		ctx := int64(r.contextLen())
		if rt.fleet.ctl.tiered() && rt.usedDecode+ctx > dec.tokenCap && len(rt.running) > 0 {
			rt.preemptFor(s, r, ctx)
		}
		if rt.usedDecode+ctx > dec.tokenCap {
			if len(rt.running) == 0 && ctx > dec.tokenCap {
				rt.decodeQ.pop()
				rt.res.Trace.Addf(s.Now(), trace.KindEviction, r.wl.ID, -1, 0, "dropped: exceeds decode cache")
				rt.fleet.dropAdmitted(s, r)
				continue
			}
			break
		}
		rt.decodeQ.pop()
		rt.usedDecode += ctx
		rt.running = append(rt.running, r)
	}
	if len(rt.running) == 0 {
		rt.decodeBusy = false
		return
	}
	var ctxTokens int64
	for _, r := range rt.running {
		ctxTokens += int64(r.contextLen())
	}
	dt, dense, attn := dec.decodeTime(rt.sw.est, cfg, len(rt.running), ctxTokens)
	rt.res.DenseTimes = append(rt.res.DenseTimes, dense)
	rt.res.AttnTimes = append(rt.res.AttnTimes, attn)
	rt.decodePending = s.After(dt, "sw-decode-done", func(s *sim.Simulator) {
		rt.afterDecode(s)
		rt.decodeStep(s)
	})
}

// preemptFor evicts strictly-lower-priority running work until ctx tokens
// fit on the decode cache (multi-tier chaos only): victims restart from
// the prefill phase and re-transfer.
func (rt *splitwiseRuntime) preemptFor(s *sim.Simulator, r *request, ctx int64) {
	f := rt.fleet
	dec := rt.sw.decode
	for rt.usedDecode+ctx > dec.tokenCap {
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
		rt.usedDecode -= int64(v.contextLen())
		v.evicted = true
		v.restartCtx = v.contextLen()
		v.hauled = false
		rt.prefillQ.push(v)
		f.ctl.notePreempt(s, v)
		rt.kickPrefill(s)
	}
}

// victimIdx picks the eviction victim among running requests: globally
// newest (LIFO) normally; under multi-tier chaos, lowest priority first
// and newest within a priority.
func (rt *splitwiseRuntime) victimIdx() int {
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

func (rt *splitwiseRuntime) afterDecode(s *sim.Simulator) {
	dec := rt.sw.decode
	still := rt.running[:0]
	for _, r := range rt.running {
		r.generated++
		rt.usedDecode++
		if r.done() {
			rt.usedDecode -= int64(r.contextLen())
			rt.fleet.finishDeferred(s, r)
			continue
		}
		still = append(still, r)
	}
	rt.running = still
	rt.fleet.flushFinishes()
	// Cache overflow → LIFO preemption; victims must re-prefill and
	// re-transfer.
	for rt.usedDecode > dec.tokenCap && len(rt.running) > 0 {
		victimIdx := rt.victimIdx()
		v := rt.running[victimIdx]
		rt.running = append(rt.running[:victimIdx], rt.running[victimIdx+1:]...)
		rt.usedDecode -= int64(v.contextLen())
		v.evicted = true
		v.restartCtx = v.contextLen()
		v.hauled = false
		rt.prefillQ.pushFront(v)
		rt.res.Evictions++
		rt.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindEviction, Request: v.wl.ID})
		rt.kickPrefill(s)
	}
	if rt.usedDecode < 0 {
		rt.usedDecode = 0
	}
	if used := rt.usedDecode * rt.sw.cfg.Model.KVBytesPerToken(); used > rt.res.PeakCacheUsed {
		rt.res.PeakCacheUsed = used
	}
}
