// Package engine contains the iteration-level serving simulators: the Hetis
// engine (primary workers + pooled attention workers with dynamic head-wise
// dispatch) and the two baselines of §7 — Splitwise (prefill/decode
// disaggregation) and HexGen (static asymmetric parallelism). All engines
// run on the discrete-event kernel with costs from the perf model, share
// the continuous-batching loop structure, and produce the same Result so
// experiments can compare them row by row.
package engine

import (
	"fmt"

	"hetis/internal/hardware"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/sim"
	"hetis/internal/trace"
	"hetis/internal/workload"
)

// Config carries the knobs shared by all engines.
type Config struct {
	Model   model.Config
	Cluster *hardware.Cluster

	// Theta is Hetis' re-dispatching threshold (§5.3); default 0.5.
	Theta float64
	// DisableRedispatch turns §5.3 off: memory exhaustion falls back to a
	// plain (device-oblivious) LIFO eviction — the Fig. 15(a) baseline.
	DisableRedispatch bool
	// BlockingMigration charges cache-migration time to the iteration
	// instead of overlapping it on low-priority streams (ablation).
	BlockingMigration bool
	// RebalanceEvery is the number of decode iterations between §5.3.1
	// imbalance checks (each check solves the ideal-placement LP).
	RebalanceEvery int
	// GreedyDispatch replaces the Eq. 7 LP with the greedy
	// longest-processing-time heuristic (ablation).
	GreedyDispatch bool
	// DisableLPWarmStart turns off the dispatcher's warm-start/patching
	// layer, keeping the exact-input memo and lower-bound skip — the
	// pre-warm-start solver behavior BENCH.json baselines are recorded
	// with. Decisions are identical either way; only solver work changes.
	DisableLPWarmStart bool

	// MaxPrefillTokens bounds the tokens prefilled per iteration.
	MaxPrefillTokens int
	// MaxPrefillRequests bounds the prompts admitted per iteration.
	MaxPrefillRequests int
	// MaxRunning bounds the decode batch per instance.
	MaxRunning int
	// AdmitWatermark is the cache-utilization ceiling for admitting new
	// (or recycled) requests: admission stops when the projected
	// utilization exceeds it, leaving slack for running requests to grow.
	// This is the hysteresis that keeps eviction storms from livelocking
	// the batch under overload (vLLM's watermark, made explicit).
	AdmitWatermark float64

	// MaxEventsPerRequest scales the simulator's runaway guard to the
	// trace: a run aborts after len(reqs)×MaxEventsPerRequest events (but
	// never fewer than minEventBudget, so tiny traces keep slack for
	// sampling timers and rebalance checks). 0 takes
	// DefaultMaxEventsPerRequest. See Config.MaxSimEvents.
	MaxEventsPerRequest int

	// MemHeadroom is the memory fraction reserved for activations.
	MemHeadroom float64
	// SampleEvery is the trace-sampling period in seconds (0 disables).
	SampleEvery float64
	// Seed drives any randomized tie-breaking (none today; kept for
	// forward compatibility).
	Seed int64

	// Sink receives every finished request's metrics.RequestRecord as the
	// run emits it. Nil (the default) stores records exactly in a fresh
	// metrics.Recorder per run — the behaviour golden traces pin. Injecting
	// a streaming sink (metrics.StreamingSink, WindowedSeries, TenantMux,
	// or a Tee of them) bounds measurement memory for million-request
	// traces. A non-nil Sink is per-run state: reuse across runs
	// accumulates.
	Sink metrics.Sink
	// NoTrace disables the per-event structured trace log; Result.Trace is
	// nil (trace.Log is nil-safe) and the run stops holding O(events)
	// memory for it. Large-scale streaming runs want this on.
	NoTrace bool

	// Chaos configures the resilience layer: replica failure windows,
	// SLO-driven autoscaling, and priority tiers with admission control and
	// preemption. Nil — or a config whose normalize() reports it inert —
	// leaves the engines on the exact legacy code path, so healthy runs stay
	// byte-identical to their pre-chaos golden traces.
	Chaos *ChaosConfig
}

// DefaultConfig returns the standard engine configuration for a model on a
// cluster.
func DefaultConfig(cfg model.Config, cluster *hardware.Cluster) Config {
	return Config{
		Model:              cfg,
		Cluster:            cluster,
		Theta:              0.5,
		RebalanceEvery:     8,
		MaxPrefillTokens:   8192,
		MaxPrefillRequests: 8,
		MaxRunning:         512,
		AdmitWatermark:     0.92,
		MemHeadroom:        0.08,
		SampleEvery:        1.0,
	}
}

// DefaultMaxEventsPerRequest is the per-request event budget of the
// simulator's runaway guard. A request's worst case — solo decode of a
// full context window plus repeated eviction/re-prefill cycles — stays
// well under it, while a genuine scheduling livelock (events that never
// advance a request) still trips the guard quickly.
const DefaultMaxEventsPerRequest = 65536

// minEventBudget floors the runaway guard so tiny traces keep slack for
// per-second sampling timers and rebalance cadence events.
const minEventBudget = 1_000_000

// MaxSimEvents is the runaway-guard event budget for a trace of n
// requests: n×MaxEventsPerRequest, floored at minEventBudget. Scaling with
// the trace keeps the guard meaningful for small runs without tripping on
// million-request traces (the old fixed 20M literal did).
//
// Chaos multiplies legitimate work per request — every replica runs its
// own loop timers, each failure window re-dispatches (and possibly
// re-prefills) a replica's whole population, autoscaling adds a tick loop
// plus drain/activate churn, and tier preemption requeues victims — so a
// chaotic run scales the budget by the fleet width and the configured
// chaos event classes. A genuine livelock still trips the guard: the
// multiplier is a constant for a given config, while a livelock generates
// events without bound.
func (c Config) MaxSimEvents(n int) uint64 {
	per := c.MaxEventsPerRequest
	if per <= 0 {
		per = DefaultMaxEventsPerRequest
	}
	budget := uint64(per) * uint64(n)
	if chaos := c.Chaos.normalize(); chaos != nil {
		mult := uint64(chaos.maxReplicas())
		// Each failure window can force a full re-dispatch/re-prefill pass;
		// autoscaling and tiering each add their own event class.
		mult += uint64(len(chaos.Failures))
		if chaos.Autoscale != nil {
			mult++
		}
		if tiersActive(chaos.Tiers) {
			mult++
		}
		budget *= mult
	}
	if budget < minEventBudget {
		budget = minEventBudget
	}
	return budget
}

// Validate reports config errors.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Cluster == nil || c.Cluster.NumDevices() == 0 {
		return fmt.Errorf("engine: empty cluster")
	}
	if c.Theta < 0 {
		return fmt.Errorf("engine: negative Theta %g", c.Theta)
	}
	if c.MaxPrefillTokens <= 0 || c.MaxPrefillRequests <= 0 || c.MaxRunning <= 0 {
		return fmt.Errorf("engine: batching limits must be positive")
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	return nil
}

// Result is what an engine run produces.
type Result struct {
	Engine string
	// Sink is the measurement sink the run fed — the injected Config.Sink,
	// or the run's own exact recorder by default. Always non-nil.
	Sink metrics.Sink
	// Recorder is the exact record store when the run measured exactly
	// (the default); nil when a custom streaming sink was injected. Exact
	// consumers (golden tables, paper experiments) read it; sink-aware
	// consumers use Sink.Snapshot().
	Recorder *metrics.Recorder
	// Trace is the structured event log (nil with Config.NoTrace).
	Trace *trace.Log

	// CacheCapacity is the KV space the deployment can hold (Fig. 11).
	CacheCapacity int64
	// PeakCacheUsed is the maximum observed total cache allocation.
	PeakCacheUsed int64

	// DenseTimes and AttnTimes are per-decode-iteration module latencies
	// (max across stages × stage count, as §7.3 defines), for Fig. 13.
	DenseTimes []float64
	AttnTimes  []float64

	// HeadSeries and CacheSeries sample per-device head counts and cache
	// utilization over time (Fig. 14), keyed by device ID.
	HeadSeries  map[hardware.DeviceID]*metrics.Series
	CacheSeries map[hardware.DeviceID]*metrics.Series

	Completed int
	Evictions int
	// Migrations counts §5.3 re-dispatch cache moves; MigratedBytes their
	// volume.
	Migrations    int
	MigratedBytes int64

	// Dropped counts requests the run refused or shed (admission control,
	// unservable size, no capacity after preemption); each also produced a
	// Dropped RequestRecord on the sink. Queued counts requests still in
	// the system when the run ended (admitted, neither completed nor
	// dropped) — nonzero only when the horizon cut the run short. Together
	// they close the conservation ledger:
	// offered == Completed + Dropped + Queued.
	Dropped int
	Queued  int
	// Preempted counts priority preemptions: lower-tier victims evicted
	// mid-flight to admit higher-tier work. Victims are requeued, not
	// dropped — a preemption costs latency. PreemptedByTenant attributes
	// the victims (nil when no preemption happened).
	Preempted         int
	PreemptedByTenant map[string]int
	// RecoveryTimes holds, per failure window, the time from the failure
	// instant to the first completion at or after it — a
	// service-restoration measure that is ~0 when surviving replicas mask
	// the failure. ScaleUps/ScaleDowns count autoscaler decisions.
	RecoveryTimes        []float64
	ScaleUps, ScaleDowns int
	// Horizon is the simulated time at which the run ended.
	Horizon float64

	// Events is the number of discrete events the run executed — the
	// denominator-free measure of simulation work that the perf trajectory
	// (internal/bench) divides by wall-clock for events/sec.
	Events uint64
	// LPSolves counts dispatch/ideal-placement LP solves across the run's
	// dispatchers; LPSolvesAvoided counts solves the caching layer skipped.
	// Both are zero for engines without dynamic dispatch.
	LPSolves, LPSolvesAvoided int
	// LPIdealSolves is the subset of LPSolves that were §5.3.1
	// ideal-relaxation solves — the warm-startable (and most expensive)
	// class.
	LPIdealSolves int
	// LPWarmStarts counts solves answered from a cached optimal basis
	// (phase 1 skipped, decision-equivalence certified); LPPhase1Skips
	// counts solver-level phase-1 skips including warm attempts whose
	// result a guard then re-solved cold; LPPatchedRows counts constraint
	// rows mutated in place when recurring LPs were re-posed as patches
	// instead of rebuilt. See internal/dispatch.
	LPWarmStarts, LPPhase1Skips, LPPatchedRows int
	// LPSolveSeconds is wall-clock spent inside simplex solves, the
	// numerator of the perf trajectory's "LP share of engine time".
	LPSolveSeconds float64
}

// Throughput is completed requests per simulated second.
func (r *Result) Throughput() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Horizon
}

// Engine is a runnable serving system simulation.
type Engine interface {
	// Name identifies the system ("hetis", "splitwise", "hexgen").
	Name() string
	// Run serves the trace until all requests finish or the horizon
	// (seconds; <= 0 means unbounded) passes.
	Run(reqs []workload.Request, horizon float64) (*Result, error)
	// CacheCapacity reports the KV space of the deployment without
	// running it.
	CacheCapacity() int64
}

// request is the runtime state of one in-flight request. Requests live in
// a per-run slab (see scheduleArrivals): one contiguous arena indexed by
// dense arrival order, so the victim-selection and decode loops chase
// pointers within one allocation instead of across a heap of individual
// structs.
type request struct {
	wl        workload.Request
	generated int // tokens produced so far
	firstTok  float64
	// restartCtx is the context length to re-prefill after an eviction.
	restartCtx int
	// prio is the request's tier priority under chaos (higher preempts
	// lower); 0 outside tiered runs.
	prio int
	// seq is the global admission order (fleetCore.admitArrival assigns
	// it), the key of every "newest first" victim choice. It replaced the
	// fleet-level map[int64]int64 so the selection loops read a field
	// instead of hashing.
	seq     int64
	evicted bool
	// hauled marks a request whose KV cache survived a replica failure by
	// being hauled to a survivor: its next "prefill" only re-establishes
	// attention state (one token of prefill work) while cache accounting
	// still charges the full hauled context.
	hauled bool
	// slot is the request's index in the slot table of the hetis instance
	// holding it (hetisInstance.slots), meaningful only while that table
	// points back at the request. It packs into the bools' padding:
	// megascale runs hold a million requests, and the struct stays at 96
	// bytes.
	slot int32
}

func (r *request) contextLen() int { return r.wl.PromptLen + r.generated }

// prefillLen is the prompt length the next prefill must process: the
// restart context normally, but a single token for a hauled request whose
// KV already moved with it.
func (r *request) prefillLen() int {
	if r.hauled {
		return 1
	}
	return r.restartCtx
}

func (r *request) done() bool { return r.generated >= r.wl.OutputLen }

// queue is a deque of requests on a power-of-two ring: push, pushFront,
// and pop are all O(1) amortized. pushFront is the requeue path eviction
// and preemption storms hammer (a victim goes back to the head so it
// keeps its place in line); the previous slice-backed version paid a
// full copy whenever the head was already at slot 0. Popped slots are
// nil'd immediately so a served request never stays pinned behind the
// ring's lifetime.
type queue struct {
	ring []*request // empty or power-of-two length
	head int        // index of the front element
	n    int        // live element count
}

func (q *queue) grow() {
	size := 2 * len(q.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]*request, size)
	mask := len(q.ring) - 1
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[(q.head+i)&mask]
	}
	q.ring = ring
	q.head = 0
}

func (q *queue) push(r *request) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = r
	q.n++
}

func (q *queue) pushFront(r *request) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.ring) - 1)
	q.ring[q.head] = r
	q.n++
}

func (q *queue) len() int { return q.n }

func (q *queue) peek() *request {
	if q.n == 0 {
		return nil
	}
	return q.ring[q.head]
}

func (q *queue) pop() *request {
	if q.n == 0 {
		return nil
	}
	r := q.ring[q.head]
	q.ring[q.head] = nil // release: served requests must be collectable
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return r
}

// QueueStorm is the benchmark surface for the (unexported) request deque:
// it fills a queue `fill` deep, requeues `storm` victims at the head —
// the preemption-storm pattern, where the retired slice-backed queue paid
// a full copy per head insert — then drains, returning the pop count so
// callers can assert nothing was lost.
func QueueStorm(fill, storm int) int {
	var q queue
	reqs := make([]request, fill+storm)
	for i := 0; i < fill; i++ {
		q.push(&reqs[i])
	}
	for i := 0; i < storm; i++ {
		q.pushFront(&reqs[fill+i])
	}
	pops := 0
	for q.pop() != nil {
		pops++
	}
	return pops
}

// scheduleArrivals feeds the trace into the engines' admission path.
//
// Request state comes from slab chunks carved on demand, so the hot loops
// walk a handful of large allocations instead of one heap object per
// request; chunks never reallocate, keeping every *request stable for the
// life of the run.
//
// Arrivals feed lazily: instead of pushing all n arrival events into the
// queue up front (for a million-request trace that alone dominated queue
// occupancy), each arrival schedules the next, so at most one arrival is
// pending at a time. Sequence numbers for all n arrivals are reserved up
// front, which makes the lazy feed produce byte-identical (At, seq) event
// keys — and therefore identical tie-breaking — to the eager loop it
// replaced. Traces not sorted by arrival time fall back to the eager loop
// with the same reserved numbering.
// requestSlabChunk is the number of request structs carved per slab chunk.
// Big enough to amortize allocator and GC bookkeeping to noise, small
// enough that a chunk stays in the small-object allocator (256 × 104B ≈
// 26KB < 32KB), where freed chunks recycle through size-class spans
// instead of demanding fresh zeroed pages — the large-object path is
// dramatically slower on scavenger-happy hosts.
const requestSlabChunk = 256

func scheduleArrivals(s *sim.Simulator, reqs []workload.Request, admit func(s *sim.Simulator, r *request)) {
	n := len(reqs)
	if n == 0 {
		return
	}
	// Request state is slab-allocated in fixed-size chunks: pointers stay
	// stable for the run, each chunk amortizes ~1k heap objects into one,
	// and chunks are only carved as arrivals actually fire (the lazy feeder
	// below), so a megascale trace never zeroes hundreds of MB up front.
	var slab []request
	alloc := func(i int) *request {
		if len(slab) == 0 {
			slab = make([]request, requestSlabChunk)
		}
		r := &slab[0]
		slab = slab[1:]
		*r = request{wl: reqs[i], restartCtx: reqs[i].PromptLen}
		return r
	}
	first := s.ReserveSeq(n)
	sorted := true
	for i := 1; i < n; i++ {
		if reqs[i].ArrivalAt < reqs[i-1].ArrivalAt {
			sorted = false
			break
		}
	}
	if !sorted {
		for i := range reqs {
			i := i
			s.ScheduleSeq(first+uint64(i), reqs[i].ArrivalAt, "arrival", func(s *sim.Simulator) {
				admit(s, alloc(i))
			})
		}
		return
	}
	f := &arrivalFeeder{reqs: reqs, first: first, admit: admit, alloc: alloc}
	f.fn = f.fire
	s.ScheduleSeq(first, reqs[0].ArrivalAt, "arrival", f.fn)
}

// arrivalFeeder is the sorted-trace lazy feed as a value: one cached
// callback fires every arrival instead of a fresh closure per request
// (a megascale trace paid one heap allocation per arrival for those).
// next advances monotonically because exactly one arrival is pending at a
// time, and fire schedules the successor before admitting — the identical
// order the closure chain produced.
type arrivalFeeder struct {
	reqs  []workload.Request
	first uint64
	next  int
	admit func(*sim.Simulator, *request)
	alloc func(int) *request
	fn    func(*sim.Simulator)
}

func (f *arrivalFeeder) fire(s *sim.Simulator) {
	i := f.next
	f.next++
	if i+1 < len(f.reqs) {
		s.ScheduleSeq(f.first+uint64(i+1), f.reqs[i+1].ArrivalAt, "arrival", f.fn)
	}
	f.admit(s, f.alloc(i))
}

// newRunSink resolves a run's measurement sink: the injected Config.Sink,
// or a fresh exact recorder pre-sized for the run's request count (every
// request surfaces at most once — as a completion or a drop — so expected
// bounds the record count and the recorder fills one contiguous slab).
// The second return is the recorder view when the sink stores records
// exactly (nil otherwise) — what Result.Recorder carries for exact
// consumers.
func (c Config) newRunSink(expected int) (metrics.Sink, *metrics.Recorder) {
	if c.Sink != nil {
		rec, _ := c.Sink.(*metrics.Recorder)
		return c.Sink, rec
	}
	rec := metrics.NewRecorderCap(expected)
	return rec, rec
}

// newTraceLog resolves a run's event log: nil under NoTrace (trace.Log
// methods are nil-safe no-ops, so engines trace unconditionally).
func (c Config) newTraceLog() *trace.Log {
	if c.NoTrace {
		return nil
	}
	return &trace.Log{}
}

// finishRecord builds the completion record recordFinish and the batched
// finish path share.
func finishRecord(r *request, now float64) metrics.RequestRecord {
	return metrics.RequestRecord{
		ID:         r.wl.ID,
		ArrivalAt:  r.wl.ArrivalAt,
		FirstToken: r.firstTok,
		FinishedAt: now,
		PromptLen:  r.wl.PromptLen,
		OutputLen:  r.wl.OutputLen,
		Tenant:     r.wl.Tenant,
		Evicted:    r.evicted,
	}
}

// recordDrop surfaces a request the run gave up on as a Dropped record:
// it stays in the attainment denominator (see metrics.RequestRecord) but
// contributes no latency samples.
func recordDrop(sink metrics.Sink, r *request, now float64) {
	sink.Observe(metrics.RequestRecord{
		ID:         r.wl.ID,
		ArrivalAt:  r.wl.ArrivalAt,
		FinishedAt: now,
		PromptLen:  r.wl.PromptLen,
		OutputLen:  r.wl.OutputLen,
		Tenant:     r.wl.Tenant,
		Evicted:    r.evicted,
		Dropped:    true,
	})
}

// moduleSeriesCap estimates the decode-iteration count of a trace for
// preallocating the §7.3 DenseTimes/AttnTimes series: iterations are
// bounded by total output tokens (every iteration emits at least one),
// capped so huge traces don't over-reserve — beyond the cap, growth
// amortizes as usual.
func moduleSeriesCap(reqs []workload.Request) int {
	const maxCap = 1 << 20
	total := 0
	for _, r := range reqs {
		total += r.OutputLen
		if total >= maxCap {
			return maxCap
		}
	}
	return total
}

// moduleLatency implements §7.3's metric: the maximum per-stage execution
// time multiplied by the number of stages, reflecting pipeline bubbles.
func moduleLatency(perStage []float64) float64 {
	if len(perStage) == 0 {
		return 0
	}
	max := perStage[0]
	for _, v := range perStage[1:] {
		if v > max {
			max = v
		}
	}
	return max * float64(len(perStage))
}
