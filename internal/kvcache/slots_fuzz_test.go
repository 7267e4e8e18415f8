package kvcache

import (
	"errors"
	"slices"
	"testing"
)

// FuzzManagerSlots drives the slot-indexed Manager and the map-backed
// refManager oracle through the same random Alloc / Extend / GrowGroups /
// ShrinkGroups / Free / Fetch / VictimLIFO / Requests sequence and asserts
// they agree after every operation: error outcomes, block and op counters,
// every live request's groups, tokens and bytes, Requests() order and the
// LIFO victims. Slots come from a free list in an order the input picks, so
// they are reused out of ID order.
func FuzzManagerSlots(f *testing.F) {
	f.Add([]byte{3, 40, 0, 1, 2, 0, 5, 7, 1, 0, 9, 4, 0, 2, 6, 5, 1, 8, 3, 1})
	f.Add([]byte{15, 10, 0, 0, 0, 0, 1, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 4, 4, 4, 0, 0})
	f.Add([]byte{0, 0, 0, 3, 39, 1, 2, 200, 5, 0, 0, 3, 3, 1, 4, 1, 7, 0, 6, 0, 2, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
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
		cfg := Config{BlockTokens: 1 + next()%16, BytesPerGroupToken: 64}
		cfg.CapacityBytes = int64(20+next()%80) * cfg.BlockBytes()
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefManager(cfg)

		var free []int              // free slots, reused in input-chosen order
		idOf := map[int]RequestID{} // live slot -> request
		nextID := RequestID(100)
		nextSlot := 0
		liveSlots := func() []int {
			out := make([]int, 0, len(idOf))
			for s := range idOf {
				out = append(out, s)
			}
			slices.Sort(out)
			return out
		}
		pickLive := func() (int, RequestID, bool) {
			live := liveSlots()
			if len(live) == 0 {
				return 0, 0, false
			}
			s := live[next()%len(live)]
			return s, idOf[s], true
		}
		sameErr := func(op string, got, want error) {
			t.Helper()
			if (got == nil) != (want == nil) || errors.Is(got, ErrNoSpace) != errors.Is(want, ErrNoSpace) {
				t.Fatalf("%s: slot manager err %v, oracle err %v", op, got, want)
			}
		}

		for steps := 0; len(data) > 0 && steps < 400; steps++ {
			switch next() % 9 {
			case 0, 1: // Alloc into a free slot
				var slot int
				if len(free) > 0 && next()%4 != 0 {
					k := next() % len(free)
					slot = free[k]
					free = append(free[:k], free[k+1:]...)
				} else {
					slot = nextSlot
					nextSlot++
				}
				id := nextID
				nextID++
				groups, tokens := next()%5, next()%48
				err := m.Alloc(slot, id, groups, tokens)
				sameErr("Alloc", err, ref.Alloc(id, groups, tokens))
				if err == nil {
					idOf[slot] = id
				} else {
					free = append(free, slot)
				}
			case 2: // Extend a live slot, or an empty one
				if slot, id, ok := pickLive(); ok && next()%8 != 0 {
					n := next() % 24
					sameErr("Extend", m.Extend(slot, n), ref.Extend(id, n))
				} else {
					sameErr("Extend empty", m.Extend(nextSlot+1, 1), ref.Extend(-1, 1))
				}
			case 3:
				if slot, id, ok := pickLive(); ok {
					extra := next() % 3
					sameErr("GrowGroups", m.GrowGroups(slot, extra), ref.GrowGroups(id, extra))
				}
			case 4:
				if slot, id, ok := pickLive(); ok {
					removed := next() % 5
					err := m.ShrinkGroups(slot, removed)
					sameErr("ShrinkGroups", err, ref.ShrinkGroups(id, removed))
					if !m.Has(slot) {
						delete(idOf, slot)
						free = append(free, slot)
					}
				}
			case 5, 6: // Free
				if slot, id, ok := pickLive(); ok {
					m.Free(slot)
					ref.Free(id)
					delete(idOf, slot)
					free = append(free, slot)
				}
			case 7:
				if slot, id, ok := pickLive(); ok {
					m.Fetch(slot)
					ref.Fetch(id)
				}
				if slot, ok := m.VictimLIFO(); ok {
					want, wantOK := ref.VictimLIFO()
					if !wantOK || idIn(m, slot) != want {
						t.Fatalf("VictimLIFO = request %d, oracle %d (ok %v)", idIn(m, slot), want, wantOK)
					}
				} else if _, wantOK := ref.VictimLIFO(); wantOK {
					t.Fatal("VictimLIFO found nothing, oracle found a victim")
				}
			case 8: // VictimLIFOExcept against the oracle's arrival order
				protect := -1
				if slot, _, ok := pickLive(); ok {
					protect = slot
				}
				order := ref.Requests()
				var want RequestID = -1
				for k := len(order) - 1; k >= 0; k-- {
					if protect < 0 || order[k] != idOf[protect] {
						want = order[k]
						break
					}
				}
				slot, ok := m.VictimLIFOExcept(protect)
				if got := idIn(m, slot); ok != (want >= 0) || (ok && got != want) {
					t.Fatalf("VictimLIFOExcept(%d) = request %d (ok %v), oracle %d", protect, got, ok, want)
				}
			}

			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if m.FreeBlocks() != ref.freeBlocks || m.StoreOps() != ref.storeOps || m.FetchOps() != ref.fetchOps {
				t.Fatalf("counters: free %d/%d store %d/%d fetch %d/%d", m.FreeBlocks(), ref.freeBlocks,
					m.StoreOps(), ref.storeOps, m.FetchOps(), ref.fetchOps)
			}
			if got, want := m.Requests(), ref.Requests(); !slices.Equal(got, want) {
				t.Fatalf("Requests() = %v, oracle %v", got, want)
			}
			if len(m.Slots()) != len(idOf) {
				t.Fatalf("%d live slots, want %d", len(m.Slots()), len(idOf))
			}
			for _, slot := range liveSlots() {
				id := idOf[slot]
				e := ref.reqs[id]
				if e == nil || idIn(m, slot) != id || m.Groups(slot) != e.groups || m.Tokens(slot) != e.tokens ||
					m.BytesOf(slot) != int64(e.blocks)*cfg.BlockBytes() {
					t.Fatalf("slot %d (request %d) disagrees with the oracle entry %+v", slot, id, e)
				}
			}
		}
	})
}

// idIn is the request held in slot (-1 if the slot is empty).
func idIn(m *Manager, slot int) RequestID {
	if e := m.at(slot); e != nil {
		return e.id
	}
	return -1
}
