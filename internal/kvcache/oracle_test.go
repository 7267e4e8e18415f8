package kvcache

import (
	"fmt"
	"sort"
)

// refManager is the map-backed block manager the slot slab replaced, kept
// verbatim (keyed by request ID) as the oracle of FuzzManagerSlots. Do not
// optimize it: its value is that it stays the bookkeeping the goldens were
// recorded against.
type refManager struct {
	cfg         Config
	totalBlocks int
	freeBlocks  int
	reqs        map[RequestID]*refEntry
	nextArrival int64
	storeOps    int64
	fetchOps    int64
}

type refEntry struct {
	groups  int
	tokens  int
	blocks  int   // groups * ceil(tokens/blockTokens)
	arrival int64 // allocation sequence, drives modified-LIFO eviction
}

func newRefManager(cfg Config) *refManager {
	return &refManager{
		cfg:         cfg,
		totalBlocks: int(cfg.CapacityBytes / cfg.BlockBytes()),
		freeBlocks:  int(cfg.CapacityBytes / cfg.BlockBytes()),
		reqs:        make(map[RequestID]*refEntry),
	}
}

func (m *refManager) blocksFor(groups, tokens int) int {
	perGroup := (tokens + m.cfg.BlockTokens - 1) / m.cfg.BlockTokens
	return groups * perGroup
}

func (m *refManager) Alloc(id RequestID, groups, tokens int) error {
	if groups <= 0 || tokens < 0 {
		return fmt.Errorf("kvcache: invalid allocation groups=%d tokens=%d", groups, tokens)
	}
	if _, exists := m.reqs[id]; exists {
		return fmt.Errorf("kvcache: request %d already allocated on device", id)
	}
	need := m.blocksFor(groups, tokens)
	if need > m.freeBlocks {
		return fmt.Errorf("%w: need %d blocks, %d free", ErrNoSpace, need, m.freeBlocks)
	}
	m.freeBlocks -= need
	m.reqs[id] = &refEntry{groups: groups, tokens: tokens, blocks: need, arrival: m.nextArrival}
	m.nextArrival++
	m.storeOps += int64(groups)
	return nil
}

func (m *refManager) Extend(id RequestID, n int) error {
	e, ok := m.reqs[id]
	if !ok {
		return fmt.Errorf("kvcache: request %d not on device", id)
	}
	if n < 0 {
		return fmt.Errorf("kvcache: negative extension %d", n)
	}
	newBlocks := m.blocksFor(e.groups, e.tokens+n)
	delta := newBlocks - e.blocks
	if delta > m.freeBlocks {
		return fmt.Errorf("%w: extension needs %d blocks, %d free", ErrNoSpace, delta, m.freeBlocks)
	}
	m.freeBlocks -= delta
	e.tokens += n
	e.blocks = newBlocks
	m.storeOps += int64(e.groups)
	return nil
}

func (m *refManager) GrowGroups(id RequestID, extra int) error {
	e, ok := m.reqs[id]
	if !ok {
		return fmt.Errorf("kvcache: request %d not on device", id)
	}
	if extra <= 0 {
		return fmt.Errorf("kvcache: GrowGroups needs positive extra, got %d", extra)
	}
	newBlocks := m.blocksFor(e.groups+extra, e.tokens)
	delta := newBlocks - e.blocks
	if delta > m.freeBlocks {
		return fmt.Errorf("%w: growth needs %d blocks, %d free", ErrNoSpace, delta, m.freeBlocks)
	}
	m.freeBlocks -= delta
	e.groups += extra
	e.blocks = newBlocks
	m.storeOps += int64(extra)
	return nil
}

func (m *refManager) ShrinkGroups(id RequestID, removed int) error {
	e, ok := m.reqs[id]
	if !ok {
		return fmt.Errorf("kvcache: request %d not on device", id)
	}
	if removed <= 0 || removed > e.groups {
		return fmt.Errorf("kvcache: cannot remove %d of %d groups", removed, e.groups)
	}
	if removed == e.groups {
		m.Free(id)
		return nil
	}
	newBlocks := m.blocksFor(e.groups-removed, e.tokens)
	m.freeBlocks += e.blocks - newBlocks
	e.groups -= removed
	e.blocks = newBlocks
	return nil
}

func (m *refManager) Free(id RequestID) {
	e, ok := m.reqs[id]
	if !ok {
		return
	}
	m.freeBlocks += e.blocks
	delete(m.reqs, id)
}

func (m *refManager) Fetch(id RequestID) {
	if e, ok := m.reqs[id]; ok {
		m.fetchOps += int64(e.groups)
	}
}

func (m *refManager) Requests() []RequestID {
	ids := make([]RequestID, 0, len(m.reqs))
	for id := range m.reqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return m.reqs[ids[i]].arrival < m.reqs[ids[j]].arrival
	})
	return ids
}

func (m *refManager) VictimLIFO() (RequestID, bool) {
	var best RequestID
	var bestArrival int64 = -1
	for id, e := range m.reqs {
		if e.arrival > bestArrival {
			bestArrival = e.arrival
			best = id
		}
	}
	return best, bestArrival >= 0
}
