package engine

import (
	"fmt"
	"testing"
	"unsafe"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/workload"
)

// checkSlots verifies an instance's slot table against its free list, its
// dispatcher and its block managers: free slots are distinct, empty and
// disjoint from held ones; every held slot points back at its request and
// has a dispatcher placement; and every slot the dispatcher or a block
// manager knows is held.
func (inst *hetisInstance) checkSlots() error {
	onFree := make([]bool, len(inst.slots))
	for _, s := range inst.freeSlots {
		if s < 0 || int(s) >= len(inst.slots) {
			return fmt.Errorf("free slot %d outside the table of %d", s, len(inst.slots))
		}
		if onFree[s] {
			return fmt.Errorf("slot %d on the free list twice", s)
		}
		onFree[s] = true
		if st := inst.slots[s]; st != (slotState{}) {
			return fmt.Errorf("free slot %d holds %+v", s, st)
		}
	}
	held := 0
	for s, st := range inst.slots {
		if st.req == nil {
			if !onFree[s] {
				return fmt.Errorf("empty slot %d is not on the free list", s)
			}
			continue
		}
		held++
		if onFree[s] {
			return fmt.Errorf("held slot %d is on the free list", s)
		}
		if int(st.req.slot) != s {
			return fmt.Errorf("slot %d holds request %d, which names slot %d", s, st.req.wl.ID, st.req.slot)
		}
		if inst.disp.PlacementView(s) == nil {
			return fmt.Errorf("held slot %d (request %d) has no placement", s, st.req.wl.ID)
		}
	}
	if n := len(inst.disp.Requests()); n != held {
		return fmt.Errorf("dispatcher places %d requests, %d slots held", n, held)
	}
	for i, m := range inst.kv {
		for _, s := range m.Slots() {
			if inst.slots[s].req == nil {
				return fmt.Errorf("worker %d holds blocks for empty slot %d", i, s)
			}
		}
	}
	return nil
}

// TestHetisSlotsUnderChaos runs the hetis engine through the chaos
// battery's event classes — replica failure and revival, KV hauling,
// autoscaling, tier preemption — and an overload that evicts, then checks
// every instance's slot bookkeeping: the dispatcher's and block managers'
// invariants, the slot table against the free list, and, once the run has
// drained, every slot back on its free list.
func TestHetisSlotsUnderChaos(t *testing.T) {
	tiny := hardware.NewBuilder(hardware.LAN100G).
		AddHost("h0", hardware.PCIe4x16, hardware.A100, 1).
		AddHost("h1", hardware.PCIe3x16, hardware.P100, 1).
		MustBuild()
	cases := []struct {
		name    string
		cluster *hardware.Cluster
		reqs    []workload.Request
		chaos   *ChaosConfig
		// headroom, when set, shrinks the cache to force pressure.
		headroom float64
	}{
		{"storm", hardware.PaperCluster(), workload.Poisson(workload.HumanEval, 4, 20, 7), stormConfig(), 0},
		{"overload", tiny, workload.Poisson(workload.LongBench, 3, 20, 5), nil, 0},
		{"overload-failover", tiny, workload.Poisson(workload.LongBench, 3, 20, 5), &ChaosConfig{
			Replicas: 2,
			Failures: []FailureWindow{
				{Replica: 0, Start: 2, End: 5, HaulKV: true},
				{Replica: 1, Start: 8, End: 9},
			},
		}, 0},
		{"overload-tiers", tiny, goldAfterBronze(), tieredChaos(), 0.5},
	}
	var evictions, preempted, migrations, failures int
	for _, c := range cases {
		cfg := DefaultConfig(model.Llama13B, c.cluster)
		cfg.Chaos = c.chaos
		if c.headroom > 0 {
			cfg.MemHeadroom = c.headroom
		}
		plan, err := PlanForWorkload(cfg, c.reqs)
		if err != nil {
			t.Fatalf("%s: plan: %v", c.name, err)
		}
		h, err := NewHetis(cfg, plan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, f, err := h.run(c.reqs, 2000)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		evictions += res.Evictions
		preempted += res.Preempted
		migrations += res.Migrations
		failures += len(res.RecoveryTimes)
		if res.Queued != 0 {
			t.Errorf("%s: run left %d requests queued", c.name, res.Queued)
		}
		for k, inst := range f.replicas {
			for i, m := range inst.kv {
				if err := m.CheckInvariants(); err != nil {
					t.Errorf("%s: replica %d worker %d: %v", c.name, k, i, err)
				}
			}
			if err := inst.disp.CheckInvariants(); err != nil {
				t.Errorf("%s: replica %d: %v", c.name, k, err)
			}
			if err := inst.checkSlots(); err != nil {
				t.Errorf("%s: replica %d: %v", c.name, k, err)
			}
			if len(inst.freeSlots) != len(inst.slots) {
				t.Errorf("%s: replica %d drained with %d of %d slots free", c.name, k, len(inst.freeSlots), len(inst.slots))
			}
		}
	}
	t.Logf("battery: %d evictions, %d preemptions, %d migrations, %d failures", evictions, preempted, migrations, failures)
	if evictions == 0 || preempted == 0 || migrations == 0 || failures == 0 {
		t.Error("the battery lost its teeth: every event class must occur")
	}
}

// goldAfterBronze fills the cache with long bronze contexts, then lands
// gold requests that can only admit by preempting bronze work.
func goldAfterBronze() []workload.Request {
	var reqs []workload.Request
	for i := 0; i < 32; i++ {
		reqs = append(reqs, workload.Request{
			ID: int64(i + 1), ArrivalAt: float64(i) * 0.05,
			PromptLen: 2000, OutputLen: 400, Tenant: "bronze",
		})
	}
	for i := 0; i < 4; i++ {
		reqs = append(reqs, workload.Request{
			ID: int64(100 + i), ArrivalAt: 3 + float64(i), PromptLen: 3500, OutputLen: 50, Tenant: "gold",
		})
	}
	return reqs
}

// TestRequestStaysSmall pins the engine's request record, which a
// million-request run holds a million of: the slot index rides in the
// padding beside the bools.
func TestRequestStaysSmall(t *testing.T) {
	if got := unsafe.Sizeof(request{}); got > 96 {
		t.Errorf("request is %d bytes, want at most 96", got)
	}
}

// TestMigrationCooldownSurvivesEviction pins the cooldown's (instance,
// request) scope across slot recycling: a request evicted while frozen
// resumes its cooldown when re-admitted here, under whatever slot it then
// gets, and the cooldown still ends on schedule.
func TestMigrationCooldownSurvivesEviction(t *testing.T) {
	inst := &hetisInstance{cfg: &Config{RebalanceEvery: 4}}
	a := &request{wl: workload.Request{ID: 1}}
	b := &request{wl: workload.Request{ID: 2}}
	sa := inst.acquireSlot(a)
	sb := inst.acquireSlot(b)
	inst.decodeSteps = 10
	inst.slots[sa].lastMig, inst.slots[sa].migrated = 10, true

	inst.coolDown(sa) // a is evicted mid-cooldown
	inst.releaseSlot(a)
	inst.releaseSlot(b) // b finishes
	inst.decodeSteps = 12
	s := inst.acquireSlot(a)
	if s != sb {
		t.Fatalf("re-admission got slot %d, want the most recently freed %d", s, sb)
	}
	inst.resumeCooldown(s, a.wl.ID)
	if frozen := inst.frozenSlots(4); !frozen[s] {
		t.Fatalf("re-admitted request lost its cooldown: frozen=%v", frozen)
	}
	if len(inst.cooling) != 0 {
		t.Errorf("resumed mark still cooling: %v", inst.cooling)
	}
	other := inst.acquireSlot(b)
	inst.resumeCooldown(other, b.wl.ID)
	if inst.frozenSlots(4)[other] {
		t.Error("a request that never migrated is frozen")
	}
	inst.decodeSteps = 18 // 2·window steps after the migration
	if inst.frozenSlots(4)[s] {
		t.Error("cooldown outlived 2·window decode steps")
	}
}
