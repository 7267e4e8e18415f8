package engine

import (
	"math/rand"
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/workload"
)

// TestDecodeCostMemoBitEqual asserts the per-batch dense-cost memo is a
// pure cache: for random batch sizes, memo hits return the exact values a
// fresh recomputation from the cost model produces, bit for bit. This is
// the engine half of the optimization contract (the dispatch half is
// TestCachingDecisionEquivalence).
func TestDecodeCostMemoBitEqual(t *testing.T) {
	reqs := shortTrace(workload.ShareGPT, 2, 10, 3)
	h := buildHetis(t, model.Llama13B, reqs)
	inst, err := h.newInstance(h.plan.Instances[0], &fleetCore{res: &Result{}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		batch := 1 + rng.Intn(256)
		got := inst.decodeCostFor(batch) // may be a memo hit

		// Fresh recomputation straight from the cost model, mirroring
		// decodeCostFor term by term.
		stageTimes := make([]float64, len(inst.stages))
		var dense float64
		for k, st := range inst.stages {
			stageTimes[k] = parallelizer.StageDecodeTime(h.est, st, batch, inst.links[k])
			dense += stageTimes[k]
		}
		if len(inst.stages) > 1 {
			dense += float64(len(inst.stages)-1) *
				perf.P2PTime(h.cfg.Cluster.InterLink, h.cfg.Model.HiddenStateBytes(batch))
		}
		last := inst.stages[len(inst.stages)-1]
		dense += h.est.LMHeadTime(last.Spec, batch, last.TP)
		wantModule := moduleLatency(stageTimes)

		if got.dense != dense || got.denseModule != wantModule {
			t.Fatalf("batch %d: memo (%v, %v) != recomputed (%v, %v)",
				batch, got.dense, got.denseModule, dense, wantModule)
		}
	}
}

// TestStaticDenseMemoBitEqual is the same property for the static
// pipeline shared by hexgen/splitwise/vllm: decodeTime with a warm memo
// must reproduce the cold result exactly for every (batch, ctx) pair.
func TestStaticDenseMemoBitEqual(t *testing.T) {
	cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())
	hx, err := NewHexGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewHexGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// Warm hx's memo with every batch size first; cold recomputes each
	// point on a fresh pipeline whose memo is reset before every call.
	for trial := 0; trial < 100; trial++ {
		batch := 1 + rng.Intn(128)
		ctx := int64(batch * (64 + rng.Intn(1024)))
		dt1, d1, a1 := hx.pipe.decodeTime(hx.est, cfg, batch, ctx)
		cold.pipe.denseMemo = nil // force recomputation
		dt2, d2, a2 := cold.pipe.decodeTime(cold.est, cfg, batch, ctx)
		if dt1 != dt2 || d1 != d2 || a1 != a2 {
			t.Fatalf("batch %d ctx %d: warm (%v,%v,%v) != cold (%v,%v,%v)",
				batch, ctx, dt1, d1, a1, dt2, d2, a2)
		}
	}
}
