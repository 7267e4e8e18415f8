package dispatch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/profile"
)

// testWorkers builds a primary (A100-like) plus n attention workers
// (3090-like) with the given per-layer capacities in bytes.
func testWorkers(primaryCap float64, attnCaps ...float64) []Worker {
	ws := []Worker{{
		ID:            0,
		Attn:          profile.AttnModel{A: 25e-9, B: 1.0 / 1600e9, C: 30e-6},
		Primary:       true,
		CapacityBytes: primaryCap,
	}}
	for i, c := range attnCaps {
		ws = append(ws, Worker{
			ID:            hardware.DeviceID(i + 1),
			Attn:          profile.AttnModel{A: 60e-9, B: 1.0 / 650e9, C: 35e-6},
			Net:           profile.NetModel{Gamma: 1.0 / 11e9, Beta: 30e-6},
			CapacityBytes: c,
		})
	}
	return ws
}

func newDispatcher(t *testing.T, cfg model.Config, ws []Worker) *Dispatcher {
	t.Helper()
	d, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(model.OPT30B, nil); err == nil {
		t.Error("no workers should error")
	}
	ws := testWorkers(1e9, 1e9)
	ws[0].Primary = false
	if _, err := New(model.OPT30B, ws); err == nil {
		t.Error("no primary should error")
	}
	ws = testWorkers(1e9)
	ws[0].CapacityBytes = -1
	if _, err := New(model.OPT30B, ws); err == nil {
		t.Error("negative capacity should error")
	}
	bad := model.OPT30B
	bad.Layers = 0
	if _, err := New(bad, testWorkers(1e9)); err == nil {
		t.Error("invalid model should error")
	}
}

func TestSingleWorkerGetsAllHeads(t *testing.T) {
	d := newDispatcher(t, model.OPT30B, testWorkers(1e12))
	got, err := d.Dispatch([]NewRequest{{ID: 1, Slot: 1, ContextLen: 500}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != model.OPT30B.Heads {
		t.Fatalf("placement %v, want all %d heads on worker 0", got[0], model.OPT30B.Heads)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeadConservationAndGroupAlignment(t *testing.T) {
	for _, cfg := range []model.Config{model.OPT30B, model.Llama70B} {
		d := newDispatcher(t, cfg, testWorkers(1e12, 1e12, 1e12))
		reqs := []NewRequest{{ID: 1, Slot: 1, ContextLen: 1000}, {ID: 2, Slot: 2, ContextLen: 200}, {ID: 3, Slot: 3, ContextLen: 4000}}
		got, err := d.Dispatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		r := cfg.GroupRatio()
		for id, x := range got {
			sum := 0
			for _, h := range x {
				if h%r != 0 {
					t.Errorf("%s req %d: %d heads not a multiple of r=%d", cfg.Name, id, h, r)
				}
				sum += h
			}
			if sum != cfg.Heads {
				t.Errorf("%s req %d: %d heads placed, want %d", cfg.Name, id, sum, cfg.Heads)
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLightLoadStaysLocal(t *testing.T) {
	// Fig. 14 behaviour: under light load the network overhead of remote
	// attention outweighs the compute gain, so heads stay on the primary.
	d := newDispatcher(t, model.Llama13B, testWorkers(1e12, 1e12))
	got, err := d.Dispatch([]NewRequest{{ID: 1, Slot: 1, ContextLen: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][1] != 0 {
		t.Errorf("light load should stay on primary, placement %v", got[0])
	}
}

func TestHeavyLoadSpills(t *testing.T) {
	// With many long requests the primary saturates and the pool workers
	// pick up heads.
	d := newDispatcher(t, model.Llama13B, testWorkers(1e12, 1e12, 1e12))
	var reqs []NewRequest
	for i := 0; i < 64; i++ {
		reqs = append(reqs, NewRequest{ID: int64(i), Slot: i, ContextLen: 4000})
	}
	got, err := d.Dispatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	spilled := 0
	for _, x := range got {
		spilled += x[1] + x[2]
	}
	if spilled == 0 {
		t.Error("heavy load should spill heads to attention workers")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityConstraintRespected(t *testing.T) {
	// Primary capacity fits only a sliver; the rest must land on workers.
	cfg := model.Llama13B
	perHeadToken := float64(cfg.KVBytesPerTokenHeadGroup()) // r=1
	// Capacity for 4 heads of a 1000-token request on the primary.
	primCap := 4 * 1000 * perHeadToken
	d := newDispatcher(t, cfg, testWorkers(primCap, 1e12))
	got, err := d.Dispatch([]NewRequest{{ID: 1, Slot: 1, ContextLen: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] > 4 {
		t.Errorf("primary got %d heads, capacity only allows 4", got[0][0])
	}
	if got[0][0]+got[0][1] != cfg.Heads {
		t.Errorf("heads lost: %v", got[0])
	}
}

func TestDispatchFailsWhenNothingFits(t *testing.T) {
	d := newDispatcher(t, model.Llama13B, testWorkers(1000, 1000))
	if _, err := d.Dispatch([]NewRequest{{ID: 1, Slot: 1, ContextLen: 100000}}); err == nil {
		t.Fatal("oversized request should fail to place")
	}
	// Failure must not leave residue.
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.AttnStepTime() != 0 {
		t.Fatal("failed dispatch left load behind")
	}
}

func TestCanFit(t *testing.T) {
	cfg := model.Llama13B
	perTok := float64(cfg.Heads) * float64(cfg.KVBytesPerTokenHeadGroup())
	d := newDispatcher(t, cfg, testWorkers(perTok*150, perTok*150))
	if !d.CanFit([]NewRequest{{ID: 1, Slot: 1, ContextLen: 100}}) {
		t.Error("small request should fit")
	}
	if d.CanFit([]NewRequest{{ID: 1, Slot: 1, ContextLen: 1000}}) {
		t.Error("oversized request should not fit")
	}
}

func TestDuplicateDispatchRejected(t *testing.T) {
	d := newDispatcher(t, model.OPT30B, testWorkers(1e12))
	if _, err := d.Dispatch([]NewRequest{{ID: 1, Slot: 1, ContextLen: 10}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Dispatch([]NewRequest{{ID: 1, Slot: 1, ContextLen: 10}}); err == nil {
		t.Fatal("duplicate id should be rejected")
	}
}

func TestExtendContextAndOverflow(t *testing.T) {
	cfg := model.Llama13B
	perHeadToken := float64(cfg.KVBytesPerTokenHeadGroup())
	cap0 := float64(cfg.Heads) * 110 * perHeadToken // fits 110 tokens of all heads
	d := newDispatcher(t, cfg, testWorkers(cap0))
	if _, err := d.Dispatch([]NewRequest{{ID: 1, Slot: 1, ContextLen: 100}}); err != nil {
		t.Fatal(err)
	}
	over, err := d.ExtendContext(1, 5)
	if err != nil || len(over) != 0 {
		t.Fatalf("within capacity: over=%v err=%v", over, err)
	}
	over, err = d.ExtendContext(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(over) != 1 || over[0] != 0 {
		t.Fatalf("expected overflow on worker 0, got %v", over)
	}
	if d.ContextLen(1) != 155 {
		t.Fatalf("context = %d want 155", d.ContextLen(1))
	}
	if _, err := d.ExtendContext(99, 1); err == nil {
		t.Fatal("unknown request should error")
	}
}

func TestRemoveReleasesLoad(t *testing.T) {
	d := newDispatcher(t, model.OPT30B, testWorkers(1e12, 1e12))
	var reqs []NewRequest
	for i := 0; i < 16; i++ {
		reqs = append(reqs, NewRequest{ID: int64(i), Slot: i, ContextLen: 2000})
	}
	if _, err := d.Dispatch(reqs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		d.Remove(i)
	}
	if d.AttnStepTime() != 0 {
		t.Fatalf("load remains after removing everything: %g", d.AttnStepTime())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIdealVsCurrent(t *testing.T) {
	d := newDispatcher(t, model.Llama13B, testWorkers(1e12, 1e12))
	var reqs []NewRequest
	for i := 0; i < 32; i++ {
		reqs = append(reqs, NewRequest{ID: int64(i), Slot: i, ContextLen: 1500})
	}
	if _, err := d.Dispatch(reqs); err != nil {
		t.Fatal(err)
	}
	ideal, err := d.IdealAttnTime()
	if err != nil {
		t.Fatal(err)
	}
	current := d.AttnStepTime()
	if ideal <= 0 {
		t.Fatal("ideal should be positive under load")
	}
	if current < ideal-1e-9 {
		t.Fatalf("current (%g) cannot beat ideal (%g)", current, ideal)
	}
}

func TestRebalanceComputeAfterSkew(t *testing.T) {
	// Build skew: dispatch one request, then grow its context massively so
	// its device becomes the bottleneck.
	d := newDispatcher(t, model.Llama13B, testWorkers(1e12, 1e12, 1e12))
	if _, err := d.Dispatch([]NewRequest{{ID: 1, Slot: 1, ContextLen: 200}}); err != nil {
		t.Fatal(err)
	}
	// Admit background requests so the pool has load to balance against.
	var reqs []NewRequest
	for i := 2; i < 20; i++ {
		reqs = append(reqs, NewRequest{ID: int64(i), Slot: i, ContextLen: 500})
	}
	if _, err := d.Dispatch(reqs); err != nil {
		t.Fatal(err)
	}
	// Request 1 decodes 30000 tokens (unpredictably long context).
	if _, err := d.ExtendContext(1, 30000); err != nil {
		t.Fatal(err)
	}
	before := d.AttnStepTime()
	rd, err := d.RebalanceCompute(0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rd == nil {
		t.Fatal("expected a re-dispatch under heavy skew")
	}
	if rd.Request != 1 {
		t.Errorf("victim = %d want 1 (the long request)", rd.Request)
	}
	after := d.AttnStepTime()
	if after >= before {
		t.Errorf("re-dispatch did not reduce attention time: %g -> %g", before, after)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceComputeNoActionWhenBalanced(t *testing.T) {
	d := newDispatcher(t, model.Llama13B, testWorkers(1e12, 1e12))
	var reqs []NewRequest
	for i := 0; i < 8; i++ {
		reqs = append(reqs, NewRequest{ID: int64(i), Slot: i, ContextLen: 400})
	}
	if _, err := d.Dispatch(reqs); err != nil {
		t.Fatal(err)
	}
	rd, err := d.RebalanceCompute(0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rd != nil {
		t.Fatalf("balanced state should not re-dispatch, got %+v", rd)
	}
}

func TestRebalanceMemoryMovesVictim(t *testing.T) {
	cfg := model.Llama13B
	perHeadToken := float64(cfg.KVBytesPerTokenHeadGroup())
	// Primary fits ~2 requests of 100 tokens at full heads; worker has
	// plenty.
	primCap := float64(cfg.Heads) * 220 * perHeadToken
	d := newDispatcher(t, cfg, testWorkers(primCap, 1e12))
	if _, err := d.Dispatch([]NewRequest{{ID: 1, Slot: 1, ContextLen: 100}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Dispatch([]NewRequest{{ID: 2, Slot: 2, ContextLen: 100}}); err != nil {
		t.Fatal(err)
	}
	// Decode pushes the primary over; request 2 (newest) should move.
	over, err := d.ExtendContext(2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(over) == 0 {
		t.Fatal("expected overflow on the primary")
	}
	rd, err := d.RebalanceMemory(over[0], []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rd == nil {
		t.Fatal("expected a memory re-dispatch")
	}
	if rd.Request != 2 {
		t.Errorf("victim = %d want 2 (modified LIFO)", rd.Request)
	}
	// The primary's load must now be within capacity.
	if d.CacheBytes(0) > primCap+1 {
		t.Errorf("primary still over capacity: %g > %g", d.CacheBytes(0), primCap)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceMemoryDeclinesWhenClusterFull(t *testing.T) {
	cfg := model.Llama13B
	perHeadToken := float64(cfg.KVBytesPerTokenHeadGroup())
	cap0 := float64(cfg.Heads) * 100 * perHeadToken
	d := newDispatcher(t, cfg, testWorkers(cap0, cap0))
	if _, err := d.Dispatch([]NewRequest{{ID: 1, Slot: 1, ContextLen: 100}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Dispatch([]NewRequest{{ID: 2, Slot: 2, ContextLen: 100}}); err != nil {
		t.Fatal(err)
	}
	// Entire cluster is full: Σg == ΣM, so re-dispatching cannot help.
	rd, err := d.RebalanceMemory(0, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rd != nil {
		t.Fatalf("full cluster should decline, got %+v", rd)
	}
}

func TestFasterWorkerGetsMoreHeads(t *testing.T) {
	// Two attention workers, one 3x slower: the LP should load the faster
	// one more heavily.
	cfg := model.Llama13B
	ws := testWorkers(0, 1e12, 1e12) // primary has no cache space
	ws[2].Attn.A *= 3
	ws[2].Attn.B *= 3
	d := newDispatcher(t, cfg, ws)
	var reqs []NewRequest
	for i := 0; i < 16; i++ {
		reqs = append(reqs, NewRequest{ID: int64(i), Slot: i, ContextLen: 2000})
	}
	got, err := d.Dispatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := 0, 0
	for _, x := range got {
		fast += x[1]
		slow += x[2]
	}
	if fast <= slow {
		t.Errorf("fast worker got %d heads, slow got %d; want fast > slow", fast, slow)
	}
}

func TestPropertyInvariantsUnderRandomChurn(t *testing.T) {
	cfg := model.Llama70B
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := New(cfg, testWorkers(5e9, 5e9, 5e9))
		if err != nil {
			return false
		}
		next := int64(0)
		var live []int64
		for step := 0; step < 40; step++ {
			switch rng.Intn(3) {
			case 0:
				id := next
				next++
				if _, err := d.Dispatch([]NewRequest{{ID: id, Slot: int(id), ContextLen: 100 + rng.Intn(2000)}}); err == nil {
					live = append(live, id)
				}
			case 1:
				if len(live) > 0 {
					k := rng.Intn(len(live))
					if _, err := d.ExtendContext(int(live[k]), rng.Intn(50)); err != nil {
						return false
					}
				}
			case 2:
				if len(live) > 0 {
					k := rng.Intn(len(live))
					d.Remove(int(live[k]))
					live = append(live[:k], live[k+1:]...)
				}
			}
			if d.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	cfg := model.Llama13B
	perHeadToken := float64(cfg.KVBytesPerTokenHeadGroup())
	cap0 := float64(cfg.Heads) * 200 * perHeadToken
	d := newDispatcher(t, cfg, testWorkers(cap0))
	if _, err := d.Dispatch([]NewRequest{{ID: 1, Slot: 1, ContextLen: 100}}); err != nil {
		t.Fatal(err)
	}
	u := d.Utilization()
	if u[0] < 0.49 || u[0] > 0.51 {
		t.Fatalf("utilization %g want ~0.5", u[0])
	}
}
