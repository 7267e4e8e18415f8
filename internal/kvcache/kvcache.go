// Package kvcache implements Hetis' head-granular paged KV-cache management
// (§6). Like vLLM, device memory is carved into fixed-size blocks; unlike
// vLLM, a block belongs to a single (request, KV head group) pair, so the
// cache of one request can be spread over several devices at head
// granularity and migrated partially.
//
// The manager tracks one device. Engines create one manager per GPU and a
// Hauler moves blocks between them.
//
// Requests are addressed by a slot: a small dense index the caller assigns
// and recycles (an engine instance hands each admitted request one from its
// free list). Per-request state lives in a slot-indexed slab, so the
// per-token Extend does no hashing, and the slab never outgrows the most
// requests the caller held at once. The request ID is stored beside the
// slot, for Requests.
package kvcache

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// RequestID identifies a serving request.
type RequestID int64

// ErrNoSpace is returned when a device cannot host the requested blocks.
var ErrNoSpace = errors.New("kvcache: out of cache blocks")

// Config shapes a device cache.
type Config struct {
	// BlockTokens is the number of tokens per block (vLLM default 16).
	BlockTokens int
	// BytesPerGroupToken is the cache footprint of one token of one KV
	// head group across the layers hosted on the device.
	BytesPerGroupToken int64
	// CapacityBytes is the device memory budget for KV cache.
	CapacityBytes int64
}

// BlockBytes is the footprint of one block.
func (c Config) BlockBytes() int64 {
	return int64(c.BlockTokens) * c.BytesPerGroupToken
}

// entry is the per-request state on one device, held in the slot slab. A
// slot is live while its entry holds at least one head group.
type entry struct {
	id     RequestID
	groups int
	tokens int
	blocks int // groups * ceil(tokens/blockTokens)
	// room is how many more tokens fit before the last block of each group
	// fills: ceil(tokens/blockTokens)*blockTokens - tokens. Extend within
	// the room allocates nothing.
	room    int
	arrival int64 // allocation sequence, drives modified-LIFO eviction
	pos     int   // index in Manager.live
}

func (e *entry) isLive() bool { return e.groups > 0 }

// Manager allocates head-group cache blocks on one device.
type Manager struct {
	cfg         Config
	totalBlocks int
	freeBlocks  int
	slots       []entry // indexed by slot
	live        []int   // live slots, in no particular order
	nextArrival int64
	// Ops counters, used by the management-overhead experiment (Fig. 15b).
	storeOps int64
	fetchOps int64
}

// NewManager creates a manager with the given geometry.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.BlockTokens <= 0 {
		return nil, fmt.Errorf("kvcache: BlockTokens must be positive, got %d", cfg.BlockTokens)
	}
	if cfg.BytesPerGroupToken <= 0 {
		return nil, fmt.Errorf("kvcache: BytesPerGroupToken must be positive, got %d", cfg.BytesPerGroupToken)
	}
	if cfg.CapacityBytes < 0 {
		return nil, fmt.Errorf("kvcache: negative capacity %d", cfg.CapacityBytes)
	}
	return &Manager{
		cfg:         cfg,
		totalBlocks: int(cfg.CapacityBytes / cfg.BlockBytes()),
		freeBlocks:  int(cfg.CapacityBytes / cfg.BlockBytes()),
	}, nil
}

// Config returns the manager geometry.
func (m *Manager) Config() Config { return m.cfg }

// TotalBlocks is the device block capacity.
func (m *Manager) TotalBlocks() int { return m.totalBlocks }

// FreeBlocks is the number of unallocated blocks.
func (m *Manager) FreeBlocks() int { return m.freeBlocks }

// UsedBlocks is the number of allocated blocks.
func (m *Manager) UsedBlocks() int { return m.totalBlocks - m.freeBlocks }

// UsedBytes is the allocated cache volume.
func (m *Manager) UsedBytes() int64 { return int64(m.UsedBlocks()) * m.cfg.BlockBytes() }

// FreeBytes is the unallocated cache volume.
func (m *Manager) FreeBytes() int64 { return int64(m.freeBlocks) * m.cfg.BlockBytes() }

// CapacityBytes is the total cache volume the device can hold.
func (m *Manager) CapacityBytes() int64 { return int64(m.totalBlocks) * m.cfg.BlockBytes() }

// Utilization is UsedBlocks/TotalBlocks in [0,1].
func (m *Manager) Utilization() float64 {
	if m.totalBlocks == 0 {
		return 0
	}
	return float64(m.UsedBlocks()) / float64(m.totalBlocks)
}

// blocksFor computes the blocks needed by groups × tokens.
func (m *Manager) blocksFor(groups, tokens int) int {
	perGroup := (tokens + m.cfg.BlockTokens - 1) / m.cfg.BlockTokens
	return groups * perGroup
}

// roomAfter is the token room left in the last block of a group holding
// tokens.
func (m *Manager) roomAfter(tokens int) int {
	bt := m.cfg.BlockTokens
	return (tokens+bt-1)/bt*bt - tokens
}

// CanAlloc reports whether groups head groups with tokens of context fit.
func (m *Manager) CanAlloc(groups, tokens int) bool {
	return m.blocksFor(groups, tokens) <= m.freeBlocks
}

// at returns the live entry in slot, or nil.
func (m *Manager) at(slot int) *entry {
	if slot < 0 || slot >= len(m.slots) || !m.slots[slot].isLive() {
		return nil
	}
	return &m.slots[slot]
}

// Alloc reserves cache in slot for `groups` KV head groups of request id,
// each with `tokens` of context. A slot may be allocated only once until
// freed; use Extend to grow it or GrowGroups to add head groups.
func (m *Manager) Alloc(slot int, id RequestID, groups, tokens int) error {
	if groups <= 0 || tokens < 0 || slot < 0 {
		return fmt.Errorf("kvcache: invalid allocation slot=%d groups=%d tokens=%d", slot, groups, tokens)
	}
	if e := m.at(slot); e != nil {
		return fmt.Errorf("kvcache: slot %d already holds request %d", slot, e.id)
	}
	need := m.blocksFor(groups, tokens)
	if need > m.freeBlocks {
		return fmt.Errorf("%w: need %d blocks, %d free", ErrNoSpace, need, m.freeBlocks)
	}
	if slot >= len(m.slots) {
		m.slots = append(m.slots, make([]entry, slot+1-len(m.slots))...)
	}
	m.freeBlocks -= need
	m.slots[slot] = entry{
		id: id, groups: groups, tokens: tokens, blocks: need,
		room: m.roomAfter(tokens), arrival: m.nextArrival, pos: len(m.live),
	}
	m.live = append(m.live, slot)
	m.nextArrival++
	m.storeOps += int64(groups) // one block-table insert per head group
	return nil
}

// Extend grows the request in slot by n tokens across all its head groups,
// allocating new blocks when a group's last block fills up.
func (m *Manager) Extend(slot, n int) error {
	e := m.at(slot)
	if e == nil {
		return fmt.Errorf("kvcache: slot %d not on device", slot)
	}
	if n < 0 {
		return fmt.Errorf("kvcache: negative extension %d", n)
	}
	if n > e.room {
		newBlocks := m.blocksFor(e.groups, e.tokens+n)
		delta := newBlocks - e.blocks
		if delta > m.freeBlocks {
			return fmt.Errorf("%w: extension needs %d blocks, %d free", ErrNoSpace, delta, m.freeBlocks)
		}
		m.freeBlocks -= delta
		e.blocks = newBlocks
		e.room = m.roomAfter(e.tokens + n)
	} else {
		e.room -= n
	}
	e.tokens += n
	m.storeOps += int64(e.groups) // per-group append
	return nil
}

// GrowGroups adds extra head groups at the request's current context
// length (used when re-dispatching moves heads onto this device).
func (m *Manager) GrowGroups(slot, extra int) error {
	e := m.at(slot)
	if e == nil {
		return fmt.Errorf("kvcache: slot %d not on device", slot)
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

// ShrinkGroups removes head groups from the request, freeing their blocks.
// Removing all groups frees the slot entirely.
func (m *Manager) ShrinkGroups(slot, removed int) error {
	e := m.at(slot)
	if e == nil {
		return fmt.Errorf("kvcache: slot %d not on device", slot)
	}
	if removed <= 0 || removed > e.groups {
		return fmt.Errorf("kvcache: cannot remove %d of %d groups", removed, e.groups)
	}
	if removed == e.groups {
		m.Free(slot)
		return nil
	}
	newBlocks := m.blocksFor(e.groups-removed, e.tokens)
	m.freeBlocks += e.blocks - newBlocks
	e.groups -= removed
	e.blocks = newBlocks
	return nil
}

// Free releases everything slot holds on this device. Freeing an empty
// slot is a no-op.
func (m *Manager) Free(slot int) {
	e := m.at(slot)
	if e == nil {
		return
	}
	m.freeBlocks += e.blocks
	last := m.live[len(m.live)-1]
	m.live[e.pos] = last
	m.slots[last].pos = e.pos
	m.live = m.live[:len(m.live)-1]
	*e = entry{}
}

// Has reports whether slot holds blocks here.
func (m *Manager) Has(slot int) bool { return m.at(slot) != nil }

// Groups returns the number of head groups slot holds here (0 if empty).
func (m *Manager) Groups(slot int) int {
	if e := m.at(slot); e != nil {
		return e.groups
	}
	return 0
}

// Tokens returns the context length slot holds here (0 if empty).
func (m *Manager) Tokens(slot int) int {
	if e := m.at(slot); e != nil {
		return e.tokens
	}
	return 0
}

// BytesOf is the exact byte footprint of slot on this device.
func (m *Manager) BytesOf(slot int) int64 {
	if e := m.at(slot); e != nil {
		return int64(e.blocks) * m.cfg.BlockBytes()
	}
	return 0
}

// Fetch records a cache read of the request (decode step touching all its
// groups) for the op-count accounting of Fig. 15(b).
func (m *Manager) Fetch(slot int) {
	if e := m.at(slot); e != nil {
		m.fetchOps += int64(e.groups)
	}
}

// StoreOps and FetchOps expose the management-op counters.
func (m *Manager) StoreOps() int64 { return m.storeOps }

// FetchOps reports accumulated fetch (block-indexing) operations.
func (m *Manager) FetchOps() int64 { return m.fetchOps }

// Slots lists the slots holding blocks on this device, in no particular
// order. The slice is owned by the manager and valid until its next
// mutation; callers must treat it as read-only.
func (m *Manager) Slots() []int { return m.live }

// Requests lists request IDs with blocks on this device, oldest allocation
// first.
func (m *Manager) Requests() []RequestID {
	order := slices.Clone(m.live)
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Compare(m.slots[a].arrival, m.slots[b].arrival)
	})
	ids := make([]RequestID, len(order))
	for k, slot := range order {
		ids[k] = m.slots[slot].id
	}
	return ids
}

// VictimLIFO implements the paper's modified LIFO policy (§5.3.2): among
// requests that actually hold memory on THIS device, pick the slot whose
// allocation arrived last. Returns false when the device is empty.
func (m *Manager) VictimLIFO() (int, bool) { return m.VictimLIFOExcept(-1) }

// VictimLIFOExcept is VictimLIFO with slot protect excluded from the choice.
func (m *Manager) VictimLIFOExcept(protect int) (int, bool) {
	best := -1
	var bestArrival int64 = -1
	for _, slot := range m.live {
		if a := m.slots[slot].arrival; a > bestArrival && slot != protect {
			bestArrival = a
			best = slot
		}
	}
	return best, best >= 0
}

// CheckInvariants verifies internal accounting; tests call it after every
// mutation sequence. The live list and the slab must agree (every live
// slot listed once at its recorded position, no free slot listed), each
// entry's blocks and token room must match its groups and tokens, and the
// blocks must add up.
func (m *Manager) CheckInvariants() error {
	used := 0
	for k, slot := range m.live {
		if slot < 0 || slot >= len(m.slots) {
			return fmt.Errorf("kvcache: live list names slot %d outside the slab", slot)
		}
		e := &m.slots[slot]
		if !e.isLive() {
			return fmt.Errorf("kvcache: free slot %d on the live list", slot)
		}
		if e.pos != k {
			return fmt.Errorf("kvcache: slot %d listed at %d, records position %d", slot, k, e.pos)
		}
		want := m.blocksFor(e.groups, e.tokens)
		if e.blocks != want {
			return fmt.Errorf("kvcache: slot %d (request %d) holds %d blocks, want %d", slot, e.id, e.blocks, want)
		}
		if r := m.roomAfter(e.tokens); e.room != r {
			return fmt.Errorf("kvcache: slot %d token room %d, want %d", slot, e.room, r)
		}
		used += e.blocks
	}
	live := 0
	for slot := range m.slots {
		if e := &m.slots[slot]; e.groups < 0 || (e.groups == 0 && *e != (entry{})) {
			return fmt.Errorf("kvcache: free slot %d holds stale state %+v", slot, *e)
		} else if e.isLive() {
			live++
		}
	}
	if live != len(m.live) {
		return fmt.Errorf("kvcache: %d live slots in the slab, %d on the live list", live, len(m.live))
	}
	if used+m.freeBlocks != m.totalBlocks {
		return fmt.Errorf("kvcache: leak: used %d + free %d != total %d", used, m.freeBlocks, m.totalBlocks)
	}
	return nil
}
