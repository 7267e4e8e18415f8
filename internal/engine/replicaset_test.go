package engine

import (
	"slices"
	"testing"

	"hetis/internal/hardware"
	"hetis/internal/model"
	"hetis/internal/sim"
	"hetis/internal/workload"
)

// TestReplicaLifecycle drives the one replicaSet through every lifecycle
// edge on all four engines: the no-op kill and revive branches, a failure
// with KV haul, a revival that steals queued work from a donor, scale-up
// with and without a parked replica, and scale-down to one replica. The
// set comes from each engine's own run on an empty trace; the script then
// runs on a fresh simulator against a burst that keeps the queues deep.
// Once the burst drains, every request must be completed or dropped, and
// on hetis every slot must be free.
func TestReplicaLifecycle(t *testing.T) {
	var burst []workload.Request
	for i := 0; i < 96; i++ {
		burst = append(burst, workload.Request{ID: int64(i + 1), PromptLen: 1000, OutputLen: 32})
	}
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(model.Llama13B, hardware.PaperCluster())
			base := 1
			if name == "hetis" {
				plan, err := PlanForWorkload(cfg, burst)
				if err != nil {
					t.Fatal(err)
				}
				base = len(plan.Instances)
			}
			// base+1 serving replicas and one parked: the autoscaler's
			// ceiling provisions it, and its interval never comes round.
			cfg.Chaos = &ChaosConfig{Replicas: base + 1, Autoscale: &AutoscalePolicy{
				MinReplicas: 1, MaxReplicas: base + 2, Interval: 1e9, UpBelow: 0.5, DownAbove: 0.9,
			}}
			e, err := NewByName(name, cfg, burst)
			if err != nil {
				t.Fatal(err)
			}
			switch e := e.(type) {
			case *Hetis:
				_, f, err := e.run(nil, 1)
				if err != nil {
					t.Fatal(err)
				}
				driveLifecycle(t, f, burst)
				for k, inst := range f.replicas {
					if err := inst.checkSlots(); err != nil {
						t.Errorf("replica %d: %v", k, err)
					}
					if len(inst.freeSlots) != len(inst.slots) {
						t.Errorf("replica %d drained with %d of %d slots free", k, len(inst.freeSlots), len(inst.slots))
					}
				}
			case *HexGen:
				_, f, err := runStatic(e.Name(), e.cfg, e.est, e.pipe, e.CacheCapacity(), nil, 1)
				if err != nil {
					t.Fatal(err)
				}
				driveLifecycle(t, f, burst)
			case *VLLM:
				_, f, err := runStatic(e.Name(), e.cfg, e.est, e.pipe, e.CacheCapacity(), nil, 1)
				if err != nil {
					t.Fatal(err)
				}
				driveLifecycle(t, f, burst)
			case *Splitwise:
				_, f, err := e.run(nil, 1)
				if err != nil {
					t.Fatal(err)
				}
				driveLifecycle(t, f, burst)
			default:
				t.Fatalf("no lifecycle case for %T", e)
			}
		})
	}
}

// driveLifecycle runs the lifecycle script on f, which must have every
// replica but the last serving and the last parked, then drains reqs and
// checks conservation.
func driveLifecycle[R replica](t *testing.T, f *replicaSet[R], reqs []workload.Request) {
	t.Helper()
	n := len(f.replicas)
	parked := n - 1
	want := func(failed, serving int) []replicaState {
		st := make([]replicaState, n)
		for i := range st {
			switch {
			case i == failed:
				st[i] = replicaFailed
			case i >= serving:
				st[i] = replicaParked
			}
		}
		return st
	}
	check := func(step string, want []replicaState) {
		t.Helper()
		if !slices.Equal(f.state, want) {
			t.Errorf("%s: replica states %v, want %v", step, f.state, want)
		}
	}
	s := sim.New()
	s.MaxEvents = 1_000_000
	check("initial", want(-1, parked))

	f.kill(s, n, true)      // out of range
	f.kill(s, parked, true) // not serving
	f.revive(s, 0)          // serving, not failed
	f.revive(s, parked)     // parked, not failed
	check("no-op calls", want(-1, parked))
	if s.Pending() != 0 {
		t.Errorf("no-op lifecycle calls left %d events pending", s.Pending())
	}

	scheduleArrivals(s, reqs, func(s *sim.Simulator, r *request) {
		if f.admitArrival(s, r) {
			f.route(s, r)
		}
	})
	// By t=2 every engine has a prefilled batch decoding (resident KV to
	// haul) and more of the burst still queued (work to steal).
	s.Schedule(2, "kill", func(s *sim.Simulator) {
		f.kill(s, 1, true)
		f.kill(s, 1, false) // already failed
		check("kill", want(1, parked))
		if f.inHaul == 0 {
			t.Error("the killed replica hauled no KV")
		}
	})
	s.Schedule(2.01, "revive", func(s *sim.Simulator) {
		queued := 0
		for _, rt := range f.replicas {
			queued += rt.queue().len()
		}
		f.revive(s, 1)
		check("revive", want(-1, parked))
		stolen := f.replicas[1].queue().len()
		if stolen == 0 {
			t.Errorf("revived replica stole nothing from %d queued requests", queued)
		}
		for _, rt := range f.replicas {
			queued -= rt.queue().len()
		}
		if queued != 0 {
			t.Errorf("activation changed the queued total by %d", -queued)
		}
	})
	s.Schedule(2.02, "scale", func(s *sim.Simulator) {
		if !f.scaleUp(s) {
			t.Error("scaleUp found no parked replica")
		}
		check("scale up", want(-1, n))
		if f.scaleUp(s) {
			t.Error("scaleUp succeeded with no parked replica")
		}
		for f.scaleDown(s) {
		}
		check("scale down", want(-1, 1))
		if f.activeCount() != 1 {
			t.Errorf("scaled down to %d replicas, want 1", f.activeCount())
		}
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if f.inSystem != 0 || f.inHaul != 0 || f.parked.len() != 0 {
		t.Errorf("drained with %d in system, %d in haul, %d parked", f.inSystem, f.inHaul, f.parked.len())
	}
	if got := f.res.Completed + f.res.Dropped; got != len(reqs) {
		t.Errorf("%d completed + %d dropped, want %d offered", f.res.Completed, f.res.Dropped, len(reqs))
	}
	if f.res.Completed == 0 {
		t.Error("nothing completed")
	}
	t.Logf("%d completed, %d dropped, %d evictions, %d KV hauls", f.res.Completed, f.res.Dropped, f.res.Evictions, f.res.Migrations)
}
