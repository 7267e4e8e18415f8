package bench

import (
	"math/rand"
	"sync"
	"testing"

	"hetis/internal/dispatch"
	"hetis/internal/engine"
	"hetis/internal/hardware"
	"hetis/internal/kvcache"
	"hetis/internal/lp"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/profile"
	"hetis/internal/sim"
	"hetis/internal/trace"
)

// RunMicro executes the micro-benchmark set through testing.Benchmark, so
// BENCH.json carries per-op latency and allocation numbers for the
// kernels the scenario suite exercises: the event loop, the admission LP,
// the ideal-placement relaxation, and block-manager bookkeeping. The set
// mirrors the *_test.go micro-benchmarks; this harness exists so the same
// measurements land in the perf trajectory without scraping `go test
// -bench` output.
func RunMicro() []MicroBench {
	return []MicroBench{
		microResult("sim/schedule-run-1024", benchSimScheduleRun),
		microResult("sim/wheel-cascade-64k", benchSimWheelCascade),
		microResult("sim/cancel-heavy-4096", benchSimCancelHeavy),
		microResult("engine/queue-storm-4096", benchQueueStorm),
		microResult("dispatch/admission-lp", benchDispatchLP),
		microResult("dispatch/ideal-attn-lp-128", benchIdealAttn),
		microResult("lp/solve-cold-20x12", benchLPSolveCold),
		microResult("lp/solve-warm-20x12", benchLPSolveWarm),
		microResult("kvcache/alloc-extend-free", benchKVCache),
		microResult("metrics/summarize-3x-10k", benchSummarizeSeparate),
		microResult("metrics/summaries-bulk-10k", benchSummariesBulk),
		microResult("metrics/streaming-observe", benchStreamingObserve),
		microResult("trace/append-1m", benchTraceAppend),
		microResult("trace/pool-contended-8", benchTracePoolContended),
		microResult("metrics/recorder-append-1m", benchRecorderAppend),
	}
}

// benchTracePoolContended hammers the trace-arena page pool from eight
// goroutines at once — the fleet layer's allocation pattern, where every
// shard grows and releases its own arena concurrently. Each worker
// appends 64k events (16 pages) and releases them back, per op. The
// striped free list keeps the workers on distinct stripes; the old single
// global mutex made every page grab and give-back a serialization point.
func benchTracePoolContended(b *testing.B) {
	const workers = 8
	trace.ResetPagePool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var log trace.Log
				for k := 0; k < 64*1024; k++ {
					log.Add(trace.Event{At: float64(k) * 1e-3, Kind: trace.KindDecode, Request: int64(k)})
				}
				log.Release()
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	trace.ResetPagePool()
}

// benchTraceAppend appends one million events per op through the paged
// arena's Add/static-Addf hot path, releasing the pages back to the pool
// between ops — the steady-state append cost of the exact-measurement
// path, with page reuse rather than fresh-arena growth dominating.
func benchTraceAppend(b *testing.B) {
	trace.ResetPagePool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var log trace.Log
		for k := 0; k < 1_000_000; k++ {
			if k%2 == 0 {
				log.Add(trace.Event{At: float64(k) * 1e-3, Kind: trace.KindDecode, Request: int64(k), Value: float64(k % 7)})
			} else {
				log.Addf(float64(k)*1e-3, trace.KindFinish, int64(k), -1, 0, "done")
			}
		}
		if log.Len() != 1_000_000 {
			b.Fatalf("trace append logged %d of 1000000 events", log.Len())
		}
		log.Release()
	}
	b.StopTimer()
	trace.ResetPagePool()
}

// benchRecorderAppend appends one million request records per op through
// the slab-chunked recorder — the exact-sink cost the engines pay per
// completion at megascale.
func benchRecorderAppend(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := metrics.NewRecorder()
		for k := 0; k < 1_000_000; k++ {
			rec.Add(metrics.RequestRecord{
				ID:         int64(k),
				FirstToken: 0.05,
				FinishedAt: 0.5,
				PromptLen:  300,
				OutputLen:  64,
			})
		}
		if rec.Count() != 1_000_000 {
			b.Fatalf("recorder append kept %d of 1000000 records", rec.Count())
		}
	}
}

// microRecords builds a deterministic 10k-record set for the summary
// micros.
func microRecords() *metrics.Recorder {
	rng := rand.New(rand.NewSource(42))
	rec := metrics.NewRecorder()
	for i := 0; i < 10000; i++ {
		ttft := 0.05 + rng.ExpFloat64()*0.2
		rec.Add(metrics.RequestRecord{
			ID:         int64(i),
			FirstToken: ttft,
			FinishedAt: ttft + rng.Float64()*4,
			PromptLen:  300,
			OutputLen:  1 + rng.Intn(256),
		})
	}
	return rec
}

// benchSummarizeSeparate is the historical path: three independent summary
// calls, each walking the records and double-copying the values.
func benchSummarizeSeparate(b *testing.B) {
	rec := microRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rec.TTFTSummary()
		_ = rec.TPOTSummary()
		_ = rec.NormLatencySummary()
	}
}

// benchSummariesBulk is the bulk path: one record walk, one allocation,
// in-place sorts.
func benchSummariesBulk(b *testing.B) {
	rec := microRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = rec.Summaries()
	}
}

// benchStreamingObserve measures the per-record cost of the streaming
// sink's hot path (three sketch inserts plus the SLO check) — the
// number multiplied by a million on megascale traces.
func benchStreamingObserve(b *testing.B) {
	sink := metrics.NewStreamingSink(metrics.SLOTarget{TTFT: 1.5, TPOT: 0.1})
	rng := rand.New(rand.NewSource(42))
	recs := make([]metrics.RequestRecord, 4096)
	for i := range recs {
		ttft := 0.05 + rng.ExpFloat64()*0.2
		recs[i] = metrics.RequestRecord{
			ID: int64(i), FirstToken: ttft, FinishedAt: ttft + rng.Float64()*4, OutputLen: 1 + rng.Intn(256),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Observe(recs[i%len(recs)])
	}
}

func microResult(name string, fn func(b *testing.B)) MicroBench {
	r := testing.Benchmark(fn)
	return MicroBench{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// benchSimScheduleRun drains 1024 events per op.
func benchSimScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New()
		for k := 0; k < 1024; k++ {
			s.Schedule(float64(k%37), "e", func(*sim.Simulator) {})
		}
		s.RunUntilIdle()
	}
}

// benchSimWheelCascade drains 65536 events spread over five decades of
// virtual time per op, so events land on the calendar queue's upper
// levels and pay the full cascade path down — the worst case for the
// wheel, where the old heap's O(log n) was its best.
func benchSimWheelCascade(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New()
		for k := 0; k < 65536; k++ {
			at := float64(k%97) * float64(1+k%11) * float64(1+k%1009) * 0.001
			s.Schedule(at, "e", func(*sim.Simulator) {})
		}
		s.RunUntilIdle()
	}
}

// benchSimCancelHeavy schedules 4096 events and cancels every other one
// before draining — the chaos layer's pattern (failure windows cancel a
// replica's whole in-flight group), exercising unlink and the handle
// generation counters.
func benchSimCancelHeavy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New()
		hs := make([]sim.Handle, 4096)
		for k := range hs {
			hs[k] = s.Schedule(float64(k%613)*0.01, "e", func(*sim.Simulator) {})
		}
		for k := 0; k < len(hs); k += 2 {
			s.Cancel(hs[k])
		}
		s.RunUntilIdle()
	}
}

// benchQueueStorm measures a preemption storm against the engine request
// deque: 4096 victims requeued at the head of a 4096-deep FIFO, then a
// full drain. The ring buffer makes every head insert O(1); the retired
// slice-backed queue copied the whole backing array per insert whenever
// the head sat at slot 0, turning a storm into O(n²).
func benchQueueStorm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := engine.QueueStorm(4096, 4096); got != 8192 {
			b.Fatalf("queue storm drained %d of 8192 requests", got)
		}
	}
}

// microWorkers builds a primary plus five pooled attention workers with
// representative fitted-model coefficients.
func microWorkers() []dispatch.Worker {
	attn := profile.AttnModel{A: 25e-9, B: 1.0 / 1600e9, C: 30e-6}
	slow := profile.AttnModel{A: 60e-9, B: 1.0 / 650e9, C: 35e-6}
	net := profile.NetModel{Gamma: 1.0 / 11e9, Beta: 30e-6}
	ws := []dispatch.Worker{{ID: 0, Attn: attn, Primary: true, CapacityBytes: 1e12}}
	for i := 0; i < 5; i++ {
		ws = append(ws, dispatch.Worker{
			ID:            hardware.DeviceID(i + 1),
			Attn:          slow,
			Net:           net,
			CapacityBytes: 1e12,
		})
	}
	return ws
}

// benchDispatchLP is one admission solve (Eq. 7) per op.
func benchDispatchLP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := dispatch.New(model.Llama70B, microWorkers())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Dispatch([]dispatch.NewRequest{{ID: 1, Slot: 0, ContextLen: 1200}, {ID: 2, Slot: 1, ContextLen: 600}}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIdealAttn is one §5.3.1 relaxation solve over a 128-request batch
// per op.
func benchIdealAttn(b *testing.B) {
	d, err := dispatch.New(model.Llama13B, microWorkers())
	if err != nil {
		b.Fatal(err)
	}
	var reqs []dispatch.NewRequest
	for i := 0; i < 128; i++ {
		reqs = append(reqs, dispatch.NewRequest{ID: int64(i), Slot: i, ContextLen: 400 + 37*(i%19)})
	}
	if _, err := d.Dispatch(reqs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.IdealAttnTime(); err != nil {
			b.Fatal(err)
		}
	}
}

// lpMicroProblem builds the deterministic 20-variable, 12-constraint
// mixed LP (GE/EQ rows force a real phase 1) the solver micros share,
// returning the first constraint's row for per-op rhs patching.
// All-positive costs keep it bounded; moderate right-hand sides keep it
// feasible.
func lpMicroProblem() (*lp.Problem, []float64) {
	rng := rand.New(rand.NewSource(7))
	const n = 20
	c := make([]float64, n)
	for j := range c {
		c[j] = 0.5 + rng.Float64()*2.5
	}
	p := lp.New(n, c)
	var row0 []float64
	for i := 0; i < 12; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64() * 2
		}
		switch i % 4 {
		case 0:
			p.AddConstraint(row, lp.GE, 1+rng.Float64())
		case 1:
			p.AddConstraint(row, lp.EQ, 4+rng.Float64()*4)
		default:
			p.AddConstraint(row, lp.LE, 10+rng.Float64()*10)
		}
		if i == 0 {
			row0 = row
		}
	}
	return p, row0
}

// benchLPSolveCold measures the from-scratch two-phase solve of the
// shared micro LP, with the same per-op rhs patch the warm micro
// applies (cycling values model the dispatch re-pose pattern).
func benchLPSolveCold(b *testing.B) {
	p, row0 := lpMicroProblem()
	if _, err := p.Solve(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SetConstraint(0, row0, lp.GE, 1.2+0.01*float64(i%8))
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLPSolveWarm measures the same patched re-solves through SolveFrom
// with the previous optimal basis: phase 1 skipped on every op.
func benchLPSolveWarm(b *testing.B) {
	p, row0 := lpMicroProblem()
	first, err := p.Solve()
	if err != nil {
		b.Fatal(err)
	}
	basis := first.Basis
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SetConstraint(0, row0, lp.GE, 1.2+0.01*float64(i%8))
		res, stats, err := p.SolveFrom(basis)
		if err != nil {
			b.Fatal(err)
		}
		if !stats.WarmStarted {
			b.Fatal("warm micro fell back to the cold path")
		}
		basis = res.Basis
	}
}

// benchKVCache allocates, extends, and frees 64 requests per op.
func benchKVCache(b *testing.B) {
	mgr, err := kvcache.NewManager(kvcache.Config{
		BlockTokens:        16,
		BytesPerGroupToken: 1 << 14,
		CapacityBytes:      1 << 36,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for slot := 0; slot < 64; slot++ {
			if err := mgr.Alloc(slot, kvcache.RequestID(slot), 4, 512); err != nil {
				b.Fatal(err)
			}
			for k := 0; k < 16; k++ {
				if err := mgr.Extend(slot, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
		for slot := 0; slot < 64; slot++ {
			mgr.Free(slot)
		}
	}
}
