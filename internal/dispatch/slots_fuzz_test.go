package dispatch

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hetis/internal/model"
)

// FuzzDispatcherSlots drives the slot-indexed Dispatcher and the
// map-backed refBook oracle through the same random Dispatch /
// DispatchExcluding / ExtendContext / Remove / Clear / RebalanceCompute /
// RebalanceMemory sequence. Slots come from a free list in an order the
// input picks, so they are reused out of ID order. After every operation
// the per-worker heads and cache bytes must be bit-equal to the oracle's,
// and so must every placement and context length, the Requests() order,
// the ideal relaxation's lower bound and buckets, and each re-dispatch
// decision: the victim (lowest ID among equal contributions) and where it
// went.
func FuzzDispatcherSlots(f *testing.F) {
	f.Add([]byte{1, 40, 30, 20, 0, 10, 0, 20, 0, 30, 1, 2, 3, 4, 5, 6, 7, 2, 9, 0, 0, 5, 8, 3, 6, 6})
	f.Add([]byte{0, 200, 9, 9, 0, 0, 0, 0, 1, 1, 1, 1, 0, 2, 6, 6, 6, 7, 7, 3, 4, 5, 0, 1})
	f.Add([]byte{1, 5, 5, 5, 0, 255, 0, 128, 1, 64, 1, 200, 2, 2, 2, 2, 2, 6, 0, 7, 1, 4, 0, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		cfg := []model.Config{model.Llama13B, model.Llama70B}[next()%2]
		caps := []float64{float64(1+next()%64) * 4e6}
		for i := 0; i < 2; i++ {
			caps = append(caps, float64(1+next()%64)*4e6)
		}
		d, err := New(cfg, testWorkersForBench(caps[0], caps[1:]...))
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefBook(d)

		var free []int              // free slots, reused in input-chosen order
		idOf := map[int]RequestID{} // live slot -> request
		nextID := RequestID(1)
		nextSlot := 0
		liveSlots := func() []int {
			out := make([]int, 0, len(idOf))
			for s := range idOf {
				out = append(out, s)
			}
			slices.Sort(out)
			return out
		}
		takeSlot := func() int {
			if len(free) > 0 && next()%4 != 0 {
				k := next() % len(free)
				s := free[k]
				free = append(free[:k], free[k+1:]...)
				return s
			}
			nextSlot++
			return nextSlot - 1
		}
		drop := func(slot int) {
			delete(idOf, slot)
			free = append(free, slot)
		}
		// redispatched mirrors one redispatchRequest on the oracle: release,
		// then re-commit the new placement (or the old one on failure).
		redispatched := func(id RequestID, x []int) {
			ctx := ref.ctxLen[id]
			ref.release(id)
			ref.commit(id, ctx, x)
		}

		for steps := 0; len(data) > 0 && steps < 200; steps++ {
			switch op := next() % 10; op {
			case 0, 1, 2: // admit a batch of 1-2 into free slots
				batch := make([]NewRequest, 1+next()%2)
				for k := range batch {
					batch[k] = NewRequest{ID: nextID, Slot: takeSlot(), ContextLen: 16 * (1 + next()%128)}
					nextID++
				}
				var x [][]int
				if op == 2 {
					x, err = d.DispatchExcluding(batch, []int{1 + next()%2})
				} else {
					x, err = d.Dispatch(batch)
				}
				for k, r := range batch {
					if err != nil {
						free = append(free, r.Slot)
						continue
					}
					ref.commit(r.ID, r.ContextLen, x[k])
					idOf[r.Slot] = r.ID
				}
			case 3, 4: // grow a live request, or a free slot
				live := liveSlots()
				if len(live) == 0 {
					break
				}
				slot := live[next()%len(live)]
				n := next() % 64
				got, gotErr := d.ExtendContext(slot, n)
				want, wantErr := ref.ExtendContext(idOf[slot], n)
				if (gotErr == nil) != (wantErr == nil) || !slices.Equal(got, want) {
					t.Fatalf("ExtendContext(slot %d): %v/%v, oracle %v/%v", slot, got, gotErr, want, wantErr)
				}
				if _, err := d.ExtendContext(nextSlot, 1); err == nil {
					t.Fatal("ExtendContext of a free slot succeeded")
				}
			case 5: // finish a live request
				if live := liveSlots(); len(live) > 0 {
					slot := live[next()%len(live)]
					d.Remove(slot)
					ref.release(idOf[slot])
					drop(slot)
				}
			case 6: // compute rebalance with a random frozen set
				theta := []float64{0, 0.1, 0.5}[next()%3]
				var frozen []bool
				frozenIDs := map[RequestID]bool{}
				for _, slot := range liveSlots() {
					if next()%3 == 0 {
						if slot >= len(frozen) {
							frozen = append(frozen, make([]bool, slot+1-len(frozen))...)
						}
						frozen[slot] = true
						frozenIDs[idOf[slot]] = true
					}
				}
				bott := ref.bottleneck()
				victim := ref.victim(bott, frozenIDs)
				if got := d.bottleneckVictim(bott, frozen); idAt(d, got) != victim {
					t.Fatalf("bottleneck victim: slot %d (request %d), oracle request %d", got, idAt(d, got), victim)
				}
				rd, err := d.RebalanceCompute(theta, frozen)
				switch {
				case rd != nil:
					if rd.Request != victim || idAt(d, rd.Slot) != victim {
						t.Fatalf("re-dispatched request %d (slot %d), oracle victim %d", rd.Request, rd.Slot, victim)
					}
					redispatched(victim, rd.New)
				case err != nil && !strings.Contains(err.Error(), "ideal LP") && victim >= 0:
					redispatched(victim, ref.place[victim]) // rolled back
				}
			case 7: // memory rebalance with newest-first candidates
				live := liveSlots()
				if len(live) == 0 {
					break
				}
				idx := next() % len(d.workers)
				cands := []int{live[next()%len(live)], live[next()%len(live)], nextSlot}
				var sumG, sumM float64
				for i := range d.workers {
					sumG += ref.g[i]
					sumM += d.workers[i].CapacityBytes
				}
				rd, err := d.RebalanceMemory(idx, cands)
				if err != nil {
					t.Fatal(err)
				}
				if sumG < sumM {
					for _, slot := range cands {
						id, ok := idOf[slot]
						if !ok || ref.place[id][idx] == 0 {
							continue
						}
						if rd != nil && rd.Request == id {
							redispatched(id, rd.New)
							break
						}
						redispatched(id, ref.place[id]) // failed and rolled back
					}
				} else if rd != nil {
					t.Fatalf("RebalanceMemory acted with no cluster slack: %+v", rd)
				}
			case 8: // a teardown now and then
				if next()%4 == 0 {
					d.Clear()
					ref.Clear()
					for _, slot := range liveSlots() {
						drop(slot)
					}
				}
			case 9: // double placement of a live slot must fail
				if live := liveSlots(); len(live) > 0 {
					slot := live[next()%len(live)]
					if _, err := d.Dispatch([]NewRequest{{ID: nextID, Slot: slot, ContextLen: 16}}); err == nil {
						t.Fatalf("Dispatch into live slot %d succeeded", slot)
					}
					nextID++
				}
			}

			if err := d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for i := range d.workers {
				if math.Float64bits(d.Heads(i)) != math.Float64bits(ref.h[i]) ||
					math.Float64bits(d.CacheBytes(i)) != math.Float64bits(ref.g[i]) {
					t.Fatalf("worker %d load: h %v g %v, oracle h %v g %v", i, d.Heads(i), d.CacheBytes(i), ref.h[i], ref.g[i])
				}
			}
			if got, want := d.Requests(), ref.Requests(); !slices.Equal(got, want) {
				t.Fatalf("Requests() = %v, oracle %v", got, want)
			}
			for _, slot := range liveSlots() {
				id := idOf[slot]
				if idAt(d, slot) != id || !slices.Equal(d.Placement(slot), ref.place[id]) || d.ContextLen(slot) != ref.ctxLen[id] {
					t.Fatalf("slot %d (request %d): placement %v ctx %d, oracle %v ctx %d",
						slot, id, d.Placement(slot), d.ContextLen(slot), ref.place[id], ref.ctxLen[id])
				}
			}
			if got, want := d.idealLowerBound(), ref.idealLowerBound(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("idealLowerBound %v, oracle %v", got, want)
			}
			if len(idOf) > 0 {
				if got, want := d.contextBuckets(), ref.buckets(); !reflect.DeepEqual(got, want) {
					t.Fatalf("buckets %v, oracle %v", got, want)
				}
			}
		}
	})
}

// idAt is the request placed in slot (-1 if the slot is free).
func idAt(d *Dispatcher, slot int) RequestID {
	if p := d.at(slot); p != nil {
		return p.id
	}
	return -1
}
