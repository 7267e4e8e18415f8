package engine

import (
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/workload"
)

// tieredChaos is a two-tier config: the "gold" tenant outranks everyone
// else (catch-all "bronze").
func tieredChaos() *ChaosConfig {
	return &ChaosConfig{Tiers: []Tier{
		{Name: "gold", Tenants: []string{"gold"}, Priority: 1},
		{Name: "bronze", Priority: 0},
	}}
}

// TestStaticEnginePreemption drives the static-pipeline engines (hexgen,
// vllm, and splitwise's decode side) into KV-cache pressure with
// long-context bronze work already decoding, then lands a gold request:
// the engine must preempt bronze victims rather than queue the gold
// request behind them, and the victims must requeue (a preemption costs
// latency, never a completion).
func TestStaticEnginePreemption(t *testing.T) {
	// Prompts clamp at the model's context window, so cache pressure comes
	// from shrinking the cache, not growing the prompts: at MemHeadroom
	// 0.8, hexgen's OPT-30B pipeline caches only ~4.8k tokens — two
	// 1.9k-token contexts fit, a third does not. Splitwise cannot hold
	// OPT-30B that tight; with Llama-13B at 0.7 its decode side caches
	// ~10k tokens, so eight bronze contexts also overflow while decoding.
	cases := []struct {
		engine   string
		model    model.Config
		headroom float64
		bronze   int
	}{
		{"hexgen", model.OPT30B, 0.8, 6},
		{"vllm", model.OPT30B, 0.8, 6},
		{"splitwise", model.Llama13B, 0.7, 8},
	}
	for _, c := range cases {
		name := c.engine
		cfg := DefaultConfig(c.model, hardware.PaperCluster())
		cfg.MemHeadroom = c.headroom
		cfg.Chaos = tieredChaos()
		var reqs []workload.Request
		for i := 0; i < c.bronze; i++ {
			reqs = append(reqs, workload.Request{
				ID: int64(i + 1), ArrivalAt: float64(i) * 0.2,
				PromptLen: 1500, OutputLen: 400, Tenant: "bronze",
			})
		}
		reqs = append(reqs, workload.Request{
			ID: 100, ArrivalAt: 2, PromptLen: 1500, OutputLen: 100, Tenant: "gold",
		})

		eng, err := NewByName(name, cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := eng.Run(reqs, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: %d preempted, %d evicted", name, res.Preempted, res.Evictions)
		if res.Preempted == 0 {
			t.Errorf("%s: gold request under cache pressure should preempt bronze work", name)
		}
		if res.PreemptedByTenant["bronze"] != res.Preempted {
			t.Errorf("%s: preemptions %d not attributed to bronze (%v)", name, res.Preempted, res.PreemptedByTenant)
		}
		if res.Completed != len(reqs) {
			t.Errorf("%s: preemption lost work: completed %d of %d", name, res.Completed, len(reqs))
		}
		for _, r := range res.Recorder.Records() {
			if r.Tenant == "gold" && r.Dropped {
				t.Errorf("%s: gold request dropped", name)
			}
		}
	}
}
