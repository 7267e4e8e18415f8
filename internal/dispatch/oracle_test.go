package dispatch

import (
	"fmt"
	"sort"
)

// refBook is the map-backed per-request bookkeeping the slot slab
// replaced, kept (keyed by request ID) as the oracle of
// FuzzDispatcherSlots: placements, context lengths, the h/g load vectors
// they feed, the ideal relaxation's lower bound and context buckets, and
// the ID-ordered re-dispatch victim scan. Worker geometry is read from the
// dispatcher under test. Do not optimize it: its value is that it stays
// the bookkeeping the goldens were recorded against.
type refBook struct {
	d      *Dispatcher
	h, g   []float64
	place  map[RequestID][]int
	ctxLen map[RequestID]int
}

func newRefBook(d *Dispatcher) *refBook {
	return &refBook{
		d:      d,
		h:      make([]float64, len(d.workers)),
		g:      make([]float64, len(d.workers)),
		place:  make(map[RequestID][]int),
		ctxLen: make(map[RequestID]int),
	}
}

func (b *refBook) Requests() []RequestID {
	ids := make([]RequestID, 0, len(b.place))
	for id := range b.place {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (b *refBook) commit(id RequestID, ctxLen int, x []int) {
	b.place[id] = append([]int(nil), x...)
	b.ctxLen[id] = ctxLen
	for i, heads := range x {
		if heads == 0 {
			continue
		}
		b.h[i] += float64(heads)
		b.g[i] += float64(heads) * b.d.perHeadTokenBytes * float64(ctxLen)
	}
}

func (b *refBook) release(id RequestID) {
	x, ok := b.place[id]
	if !ok {
		return
	}
	l := float64(b.ctxLen[id])
	for i, heads := range x {
		if heads == 0 {
			continue
		}
		b.h[i] -= float64(heads)
		b.g[i] -= float64(heads) * b.d.perHeadTokenBytes * l
		if b.h[i] < 1e-9 {
			b.h[i] = 0
		}
		if b.g[i] < 1e-6 {
			b.g[i] = 0
		}
	}
	delete(b.place, id)
	delete(b.ctxLen, id)
}

func (b *refBook) Clear() {
	for _, id := range b.Requests() {
		b.release(id)
	}
}

func (b *refBook) ExtendContext(id RequestID, n int) ([]int, error) {
	x, ok := b.place[id]
	if !ok {
		return nil, fmt.Errorf("dispatch: unknown request %d", id)
	}
	if n < 0 {
		return nil, fmt.Errorf("dispatch: negative extension %d", n)
	}
	b.ctxLen[id] += n
	var overflow []int
	for i, heads := range x {
		if heads == 0 {
			continue
		}
		b.g[i] += float64(heads) * b.d.perHeadTokenBytes * float64(n)
		if b.g[i] > b.d.workers[i].CapacityBytes+1e-6 {
			overflow = append(overflow, i)
		}
	}
	return overflow, nil
}

// buckets is the relaxation's context bucketing over the ID-sorted
// requests.
func (b *refBook) buckets() []bucket {
	ids := b.Requests()
	lens := make([]int, len(ids))
	for k, id := range ids {
		lens[k] = b.ctxLen[id]
	}
	sort.Ints(lens)
	n := idealBuckets
	if n > len(lens) {
		n = len(lens)
	}
	out := make([]bucket, 0, n)
	per := (len(lens) + n - 1) / n
	for start := 0; start < len(lens); start += per {
		end := start + per
		if end > len(lens) {
			end = len(lens)
		}
		sum := 0
		for _, l := range lens[start:end] {
			sum += l
		}
		out = append(out, bucket{ctx: float64(sum) / float64(end-start), count: end - start})
	}
	return out
}

func (b *refBook) idealLowerBound() float64 {
	d := b.d
	n := len(b.place)
	if n == 0 {
		return 0
	}
	headTot := float64(d.cfg.Heads) * float64(n)
	var ctxTot int64
	//hetis:ordered integer sum; int64 addition is commutative, so map order cannot change the total
	for _, l := range b.ctxLen {
		ctxTot += int64(l)
	}
	byteTot := float64(ctxTot) * d.perHeadTokenBytes * float64(d.cfg.Heads)

	var maxFixed float64
	headOK, byteOK := true, true
	var invA, fixedOverA, invB, fixedOverB float64
	for i := range d.workers {
		w := d.workers[i]
		a := w.Attn.A
		fixed := w.Attn.C
		if !w.Primary {
			a += w.Net.Gamma * d.scatterBytesPerHead
			fixed += w.Net.Beta
		}
		if a < 0 || w.Attn.B < 0 {
			return 0
		}
		if fixed > maxFixed {
			maxFixed = fixed
		}
		if a > 0 {
			invA += 1 / a
			fixedOverA += fixed / a
		} else {
			headOK = false
		}
		if w.Attn.B > 0 {
			invB += 1 / w.Attn.B
			fixedOverB += fixed / w.Attn.B
		} else {
			byteOK = false
		}
	}
	lb := maxFixed
	if headOK && invA > 0 {
		if v := (headTot + fixedOverA) / invA; v > lb {
			lb = v
		}
	}
	if byteOK && invB > 0 {
		if v := (byteTot + fixedOverB) / invB; v > lb {
			lb = v
		}
	}
	return lb * lbSafety
}

// bottleneck is the worker with the largest f_i over the oracle's loads.
func (b *refBook) bottleneck() int {
	bott := 0
	maxT := -1.0
	for i := range b.d.workers {
		if t := b.d.fWorkerAt(i, b.h[i], b.g[i]); t > maxT {
			maxT = t
			bott = i
		}
	}
	return bott
}

// victim is the re-dispatch victim scan over requests in ID order.
func (b *refBook) victim(bott int, frozen map[RequestID]bool) RequestID {
	var victim RequestID = -1
	var maxContrib float64
	for _, id := range b.Requests() {
		if frozen[id] {
			continue
		}
		x := b.place[id]
		heads := float64(x[bott])
		if heads == 0 {
			continue
		}
		w := b.d.workers[bott]
		contrib := w.Attn.A*heads + w.Attn.B*heads*b.d.perHeadTokenBytes*float64(b.ctxLen[id])
		if contrib > maxContrib {
			maxContrib = contrib
			victim = id
		}
	}
	return victim
}
