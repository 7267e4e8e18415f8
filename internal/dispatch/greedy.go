package dispatch

import (
	"fmt"
	"math"
)

// Policy selects the placement algorithm for new requests.
type Policy int

// Placement policies.
const (
	// PolicyLP solves the Eq. 7 min-max linear program (the paper's
	// dispatcher).
	PolicyLP Policy = iota
	// PolicyGreedy places head groups one at a time on the worker whose
	// resulting f_i is smallest — a longest-processing-time-style
	// heuristic used as the ablation baseline for the LP.
	PolicyGreedy
)

func (p Policy) String() string {
	switch p {
	case PolicyLP:
		return "lp"
	case PolicyGreedy:
		return "greedy"
	}
	return "unknown"
}

// SetPolicy switches the placement algorithm. The default is PolicyLP.
func (d *Dispatcher) SetPolicy(p Policy) { d.policy = p }

// Policy returns the active placement policy.
func (d *Dispatcher) Policy() Policy { return d.policy }

// greedyPlacement assigns each request's KVHeads head groups one group at a
// time to the worker minimizing the resulting f_i, respecting capacity.
func (d *Dispatcher) greedyPlacement(reqs []NewRequest, exclude map[int]bool) ([][]int, error) {
	nW := len(d.workers)
	r := d.cfg.GroupRatio()
	groupsPerReq := d.cfg.KVHeads

	// Simulated incremental state.
	h := append([]float64(nil), d.h...)
	g := append([]float64(nil), d.g...)

	out := make([][]int, len(reqs))
	for j, rq := range reqs {
		x := make([]int, nW)
		perGroupBytes := d.perHeadTokenBytes * float64(rq.ContextLen) * float64(r)
		for grp := 0; grp < groupsPerReq; grp++ {
			best := -1
			bestT := math.Inf(1)
			for i := range d.workers {
				if exclude[i] {
					continue
				}
				if g[i]+perGroupBytes > d.workers[i].CapacityBytes+1e-6 {
					continue
				}
				t := d.fWorkerAt(i, h[i]+float64(r), g[i]+perGroupBytes)
				if t < bestT {
					bestT = t
					best = i
				}
			}
			if best == -1 {
				return nil, fmt.Errorf("dispatch: greedy: no capacity for head group of request %d", rq.ID)
			}
			x[best] += r
			h[best] += float64(r)
			g[best] += perGroupBytes
		}
		out[j] = x
	}
	return out, nil
}

// fWorkerAt evaluates f_i at explicit load values (not deltas).
func (d *Dispatcher) fWorkerAt(i int, heads, bytes float64) float64 {
	w := d.workers[i]
	if heads <= 0 {
		return 0
	}
	t := w.Attn.A*heads + w.Attn.B*bytes + w.Attn.C
	if !w.Primary {
		t += w.Net.Gamma*d.scatterBytesPerHead*heads + w.Net.Beta
	}
	return t
}

// DispatchExcluding places new requests like Dispatch but treats the given
// worker indices as unavailable (zero capacity) — failure injection for a
// device that went unhealthy between profiling and serving.
func (d *Dispatcher) DispatchExcluding(reqs []NewRequest, excluded []int) ([][]int, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if err := d.checkNew(reqs); err != nil {
		return nil, err
	}
	ex := make(map[int]bool, len(excluded))
	for _, i := range excluded {
		if i < 0 || i >= len(d.workers) {
			return nil, fmt.Errorf("dispatch: bad excluded worker index %d", i)
		}
		ex[i] = true
	}
	x, err := d.solvePlacement(reqs, ex)
	if err != nil {
		return nil, err
	}
	return d.commitBatch(reqs, x), nil
}
