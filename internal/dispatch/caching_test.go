package dispatch

import (
	"math/rand"
	"reflect"
	"testing"

	"hetis/internal/model"
)

// TestCachingDecisionEquivalence is the optimization contract's property
// test: a dispatcher with the solver caching layer on (placement memo
// LRU + ideal lower-bound skip + warm-started/patched LPs) must make
// bit-identical decisions to a cache-disabled twin across randomized
// admission / context-growth / rebalance / removal sequences.
// Placements, tracked loads, attention step times, and every
// RebalanceCompute outcome are compared after each operation. Aggregate
// assertions at the end confirm the warm-start layer actually engaged —
// the test must exercise warm-started ideal solves, not just memos.
func TestCachingDecisionEquivalence(t *testing.T) {
	var warmTotal, patchedTotal, idealTotal int
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// Tight-ish capacities so growth hits limits and rebalancing has
			// something to do; theta varies so both skip and solve paths run.
			caps := []float64{3e8, 2e8, 2e8, 1e8, 1e8, 1e8}
			cached, err := New(model.Llama13B, testWorkersForBench(caps[0], caps[1:]...))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := New(model.Llama13B, testWorkersForBench(caps[0], caps[1:]...))
			if err != nil {
				t.Fatal(err)
			}
			plain.SetCaching(false)

			theta := []float64{0, 0.1, 0.5}[rng.Intn(3)]
			var live []RequestID
			nextID := RequestID(1)
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // admit
					ctx := 64 + rng.Intn(2048)
					nr := []NewRequest{{ID: nextID, Slot: int(nextID), ContextLen: ctx}}
					x1, err1 := cached.Dispatch(nr)
					x2, err2 := plain.Dispatch(nr)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("step %d: dispatch divergence: %v vs %v", step, err1, err2)
					}
					if err1 == nil {
						if !reflect.DeepEqual(x1, x2) {
							t.Fatalf("step %d: placements diverged: %v vs %v", step, x1, x2)
						}
						live = append(live, nextID)
					}
					nextID++
				case op < 7: // grow every live request by one token
					for _, id := range live {
						o1, e1 := cached.ExtendContext(int(id), 1)
						o2, e2 := plain.ExtendContext(int(id), 1)
						if (e1 == nil) != (e2 == nil) || !reflect.DeepEqual(o1, o2) {
							t.Fatalf("step %d: extend diverged for %d: %v/%v vs %v/%v", step, id, o1, e1, o2, e2)
						}
					}
				case op < 9: // rebalance check (the cached-path hot spot)
					r1, e1 := cached.RebalanceCompute(theta, nil)
					r2, e2 := plain.RebalanceCompute(theta, nil)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: rebalance errors diverged: %v vs %v", step, e1, e2)
					}
					if !reflect.DeepEqual(r1, r2) {
						t.Fatalf("step %d: rebalance decisions diverged: %+v vs %+v", step, r1, r2)
					}
				default: // remove a random live request
					if len(live) == 0 {
						continue
					}
					k := rng.Intn(len(live))
					cached.Remove(int(live[k]))
					plain.Remove(int(live[k]))
					live = append(live[:k], live[k+1:]...)
				}

				// Tracked state must agree bit-for-bit after every step.
				for i := range cached.Workers() {
					if cached.Heads(i) != plain.Heads(i) || cached.CacheBytes(i) != plain.CacheBytes(i) {
						t.Fatalf("step %d: worker %d load drift: h %v/%v g %v/%v",
							step, i, cached.Heads(i), plain.Heads(i), cached.CacheBytes(i), plain.CacheBytes(i))
					}
				}
				if a, b := cached.AttnStepTime(), plain.AttnStepTime(); a != b {
					t.Fatalf("step %d: AttnStepTime drift: %v vs %v", step, a, b)
				}
				for _, id := range live {
					if !reflect.DeepEqual(cached.Placement(int(id)), plain.Placement(int(id))) {
						t.Fatalf("step %d: placement drift for %d", step, id)
					}
				}
			}
			if err := cached.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if cached.LPSolvesAvoided == 0 {
				t.Error("caching layer never fired; the property test exercised nothing")
			}
			if plain.LPSolvesAvoided != 0 {
				t.Errorf("cache-disabled twin avoided %d solves", plain.LPSolvesAvoided)
			}
			if cached.LPSolves+cached.LPSolvesAvoided != plain.LPSolves {
				t.Errorf("solve accounting: cached %d+%d avoided != plain %d",
					cached.LPSolves, cached.LPSolvesAvoided, plain.LPSolves)
			}
			if cached.LPWarmStarts > cached.LPPhase1Skips {
				t.Errorf("warm starts %d exceed phase-1 skips %d", cached.LPWarmStarts, cached.LPPhase1Skips)
			}
			if plain.LPWarmStarts != 0 || plain.LPPhase1Skips != 0 || plain.LPPatchedRows != 0 {
				t.Errorf("cache-disabled twin used the warm layer: warm=%d skips=%d patched=%d",
					plain.LPWarmStarts, plain.LPPhase1Skips, plain.LPPatchedRows)
			}
			warmTotal += cached.LPWarmStarts
			patchedTotal += cached.LPPatchedRows
			idealTotal += cached.LPIdealSolves
		})
	}
	if patchedTotal == 0 {
		t.Error("no sequence ever patched a cached problem; the re-pose layer was not exercised")
	}
	if idealTotal == 0 {
		t.Error("no sequence ever solved the ideal relaxation; rebalance coverage is gone")
	}
	if warmTotal == 0 {
		t.Error("no sequence ever warm-started an ideal solve; the warm-start layer was not exercised")
	}
}

// TestPlacementMemoLRU pins the multi-entry memo: cycling a handful of
// context lengths through an otherwise-empty dispatcher re-poses LPs the
// single-slot memo of old would always miss, while the LRU answers every
// one of them without solving — and bit-equal to the first cycle.
func TestPlacementMemoLRU(t *testing.T) {
	d, err := New(model.Llama13B, testWorkersForBench(1e12, 1e12, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	ctxs := []int{100, 200, 300, 400}
	first := make(map[int][]int)
	for i, c := range ctxs {
		id := RequestID(i)
		x, err := d.Dispatch([]NewRequest{{ID: id, Slot: int(id), ContextLen: c}})
		if err != nil {
			t.Fatal(err)
		}
		first[c] = x[0]
		d.Remove(int(id)) // release restores (h, g) to the empty state bit-exactly
	}
	if d.LPSolvesAvoided != 0 {
		t.Fatalf("first cycle already hit the memo %d times", d.LPSolvesAvoided)
	}
	solves := d.LPSolves
	for i, c := range ctxs {
		id := RequestID(10 + i)
		x, err := d.Dispatch([]NewRequest{{ID: id, Slot: int(id), ContextLen: c}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(x[0], first[c]) {
			t.Errorf("ctx %d: memo answer %v != solved answer %v", c, x[0], first[c])
		}
		d.Remove(int(id))
	}
	if d.LPSolves != solves {
		t.Errorf("second cycle solved %d LPs; the LRU should have answered all %d", d.LPSolves-solves, len(ctxs))
	}
	if d.LPSolvesAvoided != len(ctxs) {
		t.Errorf("avoided %d solves, want %d", d.LPSolvesAvoided, len(ctxs))
	}
}

// TestSetWarmStartBaselineMode pins the nowarm toggle: with warm starts
// off the dispatcher must behave like the pre-warm-start solver (no
// patched rows, no phase-1 skips) while making identical decisions.
func TestSetWarmStartBaselineMode(t *testing.T) {
	warm, err := New(model.Llama13B, testWorkersForBench(1e12, 1e12, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(model.Llama13B, testWorkersForBench(1e12, 1e12, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	cold.SetWarmStart(false)
	for i := 0; i < 12; i++ {
		nr := []NewRequest{{ID: RequestID(i), Slot: i, ContextLen: 128 + 100*i}}
		x1, err1 := warm.Dispatch(nr)
		x2, err2 := cold.Dispatch(nr)
		if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(x1, x2) {
			t.Fatalf("step %d: nowarm decisions diverged: %v/%v vs %v/%v", i, x1, err1, x2, err2)
		}
		r1, e1 := warm.RebalanceCompute(0, nil)
		r2, e2 := cold.RebalanceCompute(0, nil)
		if (e1 == nil) != (e2 == nil) || !reflect.DeepEqual(r1, r2) {
			t.Fatalf("step %d: nowarm rebalance diverged: %+v vs %+v", i, r1, r2)
		}
	}
	if cold.LPPatchedRows != 0 || cold.LPPhase1Skips != 0 || cold.LPWarmStarts != 0 {
		t.Errorf("nowarm dispatcher used the warm layer: patched=%d skips=%d warm=%d",
			cold.LPPatchedRows, cold.LPPhase1Skips, cold.LPWarmStarts)
	}
	if warm.LPPatchedRows == 0 {
		t.Error("warm dispatcher never patched a problem")
	}
}

// TestIdealLowerBoundCertified asserts the aggregate bound never exceeds
// the LP optimum it gates, across random loads — the inequality the
// RebalanceCompute skip is sound under.
func TestIdealLowerBoundCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		d, err := New(model.Llama13B, testWorkersForBench(1e12, 1e12, 1e12, 1e12))
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			if _, err := d.Dispatch([]NewRequest{{ID: RequestID(i), Slot: i, ContextLen: 32 + rng.Intn(4096)}}); err != nil {
				t.Fatal(err)
			}
		}
		lb := d.idealLowerBound()
		ideal, err := d.IdealAttnTime()
		if err != nil {
			t.Fatal(err)
		}
		if lb > ideal {
			t.Fatalf("trial %d (n=%d): lower bound %v exceeds ideal %v", trial, n, lb, ideal)
		}
	}
}

// TestPlacementView pins the no-copy accessor: same content as Placement,
// same backing array as the dispatcher's own record, nil for unknowns.
func TestPlacementView(t *testing.T) {
	d, err := New(model.Llama13B, testWorkersForBench(1e12, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumWorkers() != 2 {
		t.Fatalf("NumWorkers=%d want 2", d.NumWorkers())
	}
	if _, err := d.Dispatch([]NewRequest{{ID: 7, Slot: 7, ContextLen: 100}}); err != nil {
		t.Fatal(err)
	}
	view := d.PlacementView(7)
	if !reflect.DeepEqual(view, d.Placement(7)) {
		t.Errorf("view %v != copy %v", view, d.Placement(7))
	}
	if d.PlacementView(8) != nil {
		t.Error("unknown request should view nil")
	}
}
