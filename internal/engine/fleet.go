// The replica lifecycle shared by all four engines. Every engine serves
// through a replicaSet: a run body that feeds arrivals through admission
// and routing, plus one implementation of the chaos layer's fleet surface
// (route, kill, revive, activate, deactivate, scale). A replica supplies
// only what really differs between engines — its load key, the queue
// routing and work stealing use, its kick, and a teardown. A healthy run
// is a set of the engine's base replicas with a nil controller, where
// every lifecycle path degenerates to the single-deployment behaviour the
// golden traces pin.

package engine

import (
	"cmp"

	"hetis/internal/metrics"
	"hetis/internal/perf"
	"hetis/internal/sim"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// replicaState is one replica's lifecycle position.
type replicaState int

const (
	replicaActive replicaState = iota
	replicaFailed
	replicaParked // provisioned but not serving (autoscale headroom)
)

// fleetCore is the replica-type-independent bookkeeping of a run: global
// arrival sequencing, the conservation ledger, the parked backlog, and the
// serialized KV-haul link. Replicas hold a concrete *fleetCore so the
// per-token paths (finishDeferred, flushFinishes, dropAdmitted) make no
// interface or generic-dictionary calls.
type fleetCore struct {
	cfg  Config
	res  *Result
	ctl  *chaosCtl
	sink metrics.Sink

	// nextSeq numbers arrivals globally (stamped onto request.seq); victim
	// selection ("newest first") compares within one replica, where the
	// global order agrees with any per-replica numbering.
	nextSeq int64
	// inSystem counts admitted requests not yet finished or dropped —
	// the Queued term of the conservation ledger.
	inSystem int
	// parked holds admitted requests with no active replica to run on.
	parked queue
	// inHaul counts requests whose KV is mid-transfer between replicas;
	// haulFree is when the haul link next frees up (transfers serialize).
	inHaul   int
	haulFree float64
	// recBatch buffers one iteration's completion records: afterDecode
	// loops fill it through finishDeferred and flush it with one batched
	// sink append before the event callback returns.
	recBatch []metrics.RequestRecord
}

// admitArrival runs the shared arrival bookkeeping: sequence number,
// arrival trace, tier admission. A false return means the request was
// dropped at admission.
func (c *fleetCore) admitArrival(s *sim.Simulator, r *request) bool {
	r.seq = c.nextSeq
	c.nextSeq++
	c.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindArrival, Request: r.wl.ID})
	if !c.ctl.admit(s, r) {
		return false
	}
	c.inSystem++
	return true
}

// dropAdmitted records the drop of an already-admitted request (the
// unservable-size paths), closing its conservation slot.
func (c *fleetCore) dropAdmitted(s *sim.Simulator, r *request) {
	c.ctl.release(r)
	c.inSystem--
	c.res.Dropped++
	recordDrop(c.sink, r, s.Now())
	c.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindDrop, Request: r.wl.ID, Note: r.wl.Tenant})
}

// finishDeferred runs the shared completion bookkeeping with the sink
// append buffered: ledger, counter, and trace updates happen immediately
// (so trace-event order is untouched), while the completion record waits
// in recBatch for one batched sink call. Callers must flushFinishes
// before their event callback returns.
func (c *fleetCore) finishDeferred(s *sim.Simulator, r *request) {
	c.ctl.release(r)
	c.inSystem--
	c.recBatch = append(c.recBatch, finishRecord(r, s.Now()))
	c.res.Completed++
	c.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindFinish, Request: r.wl.ID})
}

// flushFinishes observes the buffered completion records in order and
// clears the buffer (dropping its tenant-string references) for reuse.
func (c *fleetCore) flushFinishes() {
	if len(c.recBatch) == 0 {
		return
	}
	metrics.ObserveAll(c.sink, c.recBatch)
	clear(c.recBatch)
	c.recBatch = c.recBatch[:0]
}

// haulTo ships a victim's KV cache toward a surviving replica over the
// cluster interconnect; transfers serialize on the link, and deliver runs
// when the transfer lands.
func (c *fleetCore) haulTo(s *sim.Simulator, r *request, deliver func(*sim.Simulator, *request)) {
	bytes := int64(r.restartCtx) * c.cfg.Model.KVBytesPerToken()
	dt := perf.P2PTime(c.cfg.Cluster.InterLink, bytes)
	now := s.Now()
	if c.haulFree < now {
		c.haulFree = now
	}
	c.haulFree += dt
	c.res.Migrations++
	c.res.MigratedBytes += bytes
	c.res.Trace.Add(trace.Event{At: now, Kind: trace.KindMigration, Request: r.wl.ID, Value: float64(bytes)})
	c.inHaul++
	s.Schedule(c.haulFree, "kv-haul", func(s *sim.Simulator) {
		c.inHaul--
		deliver(s, r)
	})
}

// loseVictim applies lost-KV failure semantics: the request re-prefills
// its full accumulated context on whichever replica it lands on.
func (c *fleetCore) loseVictim(s *sim.Simulator, r *request) {
	r.hauled = false
	c.res.Evictions++
	c.res.Trace.Add(trace.Event{At: s.Now(), Kind: trace.KindEviction, Request: r.wl.ID})
}

// replica is one serving replica as its replicaSet sees it: the hooks the
// shared lifecycle needs, and nothing from the per-token loops.
type replica interface {
	// load is the routing key: the least-loaded active replica gets the
	// next request, the lowest index on ties.
	load() int
	// queue is where routed requests wait, and what an activating replica
	// steals from.
	queue() *waitQueue
	// kick starts the replica's loop unless it is already running.
	kick(s *sim.Simulator)
	// teardown cancels the replica's pending events, empties it, and
	// returns every request it held, in seq order, each marked with
	// whether its KV was resident (and so can be hauled). Requests still
	// in queue() stay there: they are not victims, they just requeue.
	teardown(s *sim.Simulator) []victim
}

// victim is one request a torn-down replica held.
type victim struct {
	r        *request
	resident bool
}

// bySeq orders a teardown's victims by admission (slices.SortFunc).
func bySeq(a, b victim) int { return cmp.Compare(a.r.seq, b.r.seq) }

// replicaSet is a run's replicas and their lifecycle; it implements
// chaosFleet. Replica indices are stable across kill and revive.
type replicaSet[R replica] struct {
	fleetCore
	replicas []R
	state    []replicaState
	// land places a request whose KV haul has landed. It routes like an
	// arrival unless the engine overrides it (Splitwise lands hauls on a
	// decode queue).
	land func(*sim.Simulator, *request)
}

// runReplicas is the one Run body behind every engine. It clamps the
// trace to the context window, resolves the sink and the chaos
// controller, builds base replicas — or the chaos config's width and
// capacity — with build, feeds arrivals through admission and routing, and
// simulates to the horizon. start, when set, runs after the arrivals are
// scheduled and before the simulation. The set comes back for the
// engine's epilogue and for tests.
func runReplicas[R replica](cfg Config, name string, capBytes int64, base int, reqs []workload.Request, horizon float64,
	build func(i int, fleet *fleetCore) (R, error), start func(*sim.Simulator, *replicaSet[R])) (*Result, *replicaSet[R], error) {
	reqs = workload.Truncate(reqs, cfg.Model.MaxSeqLen) // clamp to the context window
	sink, rec := cfg.newRunSink(len(reqs))
	res := &Result{
		Engine:        name,
		Sink:          sink,
		Recorder:      rec,
		Trace:         cfg.newTraceLog(),
		CacheCapacity: capBytes,
	}
	iters := moduleSeriesCap(reqs)
	res.DenseTimes = make([]float64, 0, iters)
	res.AttnTimes = make([]float64, 0, iters)
	f := &replicaSet[R]{fleetCore: fleetCore{cfg: cfg, res: res, sink: sink}}
	f.land = f.route
	width, total := base, base
	if chaos := cfg.Chaos.normalize(); chaos != nil {
		f.ctl = newChaosCtl(chaos, res, res.Trace, sink)
		f.ctl.bind(f)
		f.sink = f.ctl
		width = max(base, chaos.initialReplicas())
		total = max(width, chaos.maxReplicas())
	}
	for i := 0; i < total; i++ {
		rt, err := build(i, &f.fleetCore)
		if err != nil {
			return nil, nil, err
		}
		st := replicaParked
		if i < width {
			st = replicaActive
		}
		f.replicas = append(f.replicas, rt)
		f.state = append(f.state, st)
	}
	s := sim.New()
	s.MaxEvents = cfg.MaxSimEvents(len(reqs))
	f.ctl.start(s)
	scheduleArrivals(s, reqs, func(s *sim.Simulator, r *request) {
		if f.admitArrival(s, r) {
			f.route(s, r)
		}
	})
	if start != nil {
		start(s, f)
	}
	if err := s.Run(horizon); err != nil {
		return nil, nil, err
	}
	res.Horizon = s.Now()
	res.Events = s.Executed
	res.Queued = f.inSystem
	return res, f, nil
}

// activeCount implements chaosFleet.
func (f *replicaSet[R]) activeCount() int {
	n := 0
	for _, st := range f.state {
		if st == replicaActive {
			n++
		}
	}
	return n
}

// leastLoaded is the index of the active replica with the lowest load
// (the first on ties), or -1 when none is serving.
func (f *replicaSet[R]) leastLoaded() int {
	best, bestLoad := -1, 0
	for i, rt := range f.replicas {
		if f.state[i] != replicaActive {
			continue
		}
		if load := rt.load(); best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// route sends a request to the least-loaded active replica, or parks it
// when no replica is serving (an activating replica drains the park).
func (f *replicaSet[R]) route(s *sim.Simulator, r *request) {
	i := f.leastLoaded()
	if i < 0 {
		f.parked.push(r)
		return
	}
	rt := f.replicas[i]
	rt.queue().push(r)
	rt.kick(s)
}

// deactivate takes replica i out of service and re-dispatches everything
// it held: resident requests haul their KV to survivors (haul mode) or
// lose it and re-prefill, like every other victim; queued requests
// requeue as-is.
func (f *replicaSet[R]) deactivate(s *sim.Simulator, i int, haul bool, to replicaState) {
	f.state[i] = to
	rt := f.replicas[i]
	for _, v := range rt.teardown(s) {
		r := v.r
		r.evicted = true
		r.restartCtx = r.contextLen()
		if haul && v.resident {
			r.hauled = true
			f.haulTo(s, r, f.land)
			continue
		}
		f.loseVictim(s, r)
		f.route(s, r)
	}
	for q := rt.queue(); q.len() > 0; {
		f.route(s, q.pop())
	}
}

// kill implements chaosFleet.
func (f *replicaSet[R]) kill(s *sim.Simulator, replica int, haul bool) {
	if replica >= len(f.replicas) || f.state[replica] != replicaActive {
		return
	}
	f.deactivate(s, replica, haul, replicaFailed)
}

// revive implements chaosFleet.
func (f *replicaSet[R]) revive(s *sim.Simulator, replica int) {
	if replica >= len(f.replicas) || f.state[replica] != replicaFailed {
		return
	}
	f.activate(s, replica)
}

// activate brings replica i into service and hands it the parked backlog,
// then steals queued (not yet admitted) work from busier replicas so the
// newcomer helps drain the backlog instead of waiting on fresh arrivals.
func (f *replicaSet[R]) activate(s *sim.Simulator, i int) {
	f.state[i] = replicaActive
	rt := f.replicas[i]
	q := rt.queue()
	for f.parked.len() > 0 {
		q.push(f.parked.pop())
	}
	for {
		var donor *waitQueue
		for j, o := range f.replicas {
			if j == i || f.state[j] != replicaActive {
				continue
			}
			if oq := o.queue(); donor == nil || oq.len() > donor.len() {
				donor = oq
			}
		}
		if donor == nil || donor.len() <= q.len()+1 {
			break
		}
		q.push(donor.pop())
	}
	rt.kick(s)
}

// scaleUp implements chaosFleet: activate the first parked replica.
func (f *replicaSet[R]) scaleUp(s *sim.Simulator) bool {
	for i, st := range f.state {
		if st == replicaParked {
			f.activate(s, i)
			return true
		}
	}
	return false
}

// scaleDown implements chaosFleet: drain the highest-index active replica
// (its KV hauls to survivors — a graceful drain, not a crash).
func (f *replicaSet[R]) scaleDown(s *sim.Simulator) bool {
	if f.activeCount() <= 1 {
		return false
	}
	for i := len(f.state) - 1; i >= 0; i-- {
		if f.state[i] == replicaActive {
			f.deactivate(s, i, true, replicaParked)
			return true
		}
	}
	return false
}
