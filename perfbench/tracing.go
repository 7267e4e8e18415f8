package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed call into the program: its name, start and end in
// seconds since the replay began, and the index of the enclosing span (-1
// for a root). Spans stay in memory; the parent process writes them out
// when the benchmark ends.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.origin).Seconds(), Parent: parent})
	return len(l.spans) - 1
}

// end closes span i and returns its duration in seconds.
func (l *spanLog) end(i int) float64 {
	l.spans[i].End = time.Since(l.origin).Seconds()
	return l.spans[i].End - l.spans[i].Start
}

// runtimeSamples are the runtime/metrics a traced replay differences.
var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

const heapSample = "/memory/classes/heap/objects:bytes"

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// tracer is the instrumentation of a traced replay: a CPU profile, the
// runtime counters at its start, and a goroutine sampling the live heap.
type tracer struct {
	prof   bytes.Buffer
	before []float64
	peak   uint64 // written by sampleHeap only; read after it has exited
	stop   chan struct{}
	wg     sync.WaitGroup
}

func startTracer() (*tracer, error) {
	t := &tracer{stop: make(chan struct{})}
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	t.before = readRuntime()
	t.wg.Add(1)
	go t.sampleHeap()
	return t, nil
}

func (t *tracer) sampleHeap() {
	defer t.wg.Done()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	s := []metrics.Sample{{Name: heapSample}}
	for {
		metrics.Read(s)
		t.peak = max(t.peak, s[0].Value.Uint64())
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
	}
}

// abort stops the instrumentation without reading it.
func (t *tracer) abort() {
	close(t.stop)
	t.wg.Wait()
	pprof.StopCPUProfile()
}

// runtimeStats are the runtime's figures over one traced replay.
type runtimeStats struct {
	allocs, allocBytes, gcCycles, gcCPUFrac, peakHeapMB float64
}

func (r runtimeStats) perEvent(events uint64) map[string]float64 {
	out := map[string]float64{
		"runtime.gc_cycles":    r.gcCycles,
		"runtime.gc_cpu_frac":  r.gcCPUFrac,
		"runtime.peak_heap_mb": r.peakHeapMB,
	}
	if events > 0 {
		out["runtime.allocs_per_event"] = r.allocs / float64(events)
		out["runtime.alloc_bytes_per_event"] = r.allocBytes / float64(events)
	}
	return out
}

// finish stops the instrumentation and returns CPU seconds by layer and the
// runtime's figures over the replay.
func (t *tracer) finish() (map[string]float64, runtimeStats, error) {
	close(t.stop)
	t.wg.Wait()
	pprof.StopCPUProfile()
	after := readRuntime()
	d := make([]float64, len(after))
	for i := range after {
		d[i] = after[i] - t.before[i]
	}
	rt := runtimeStats{allocs: d[0], allocBytes: d[1], gcCycles: d[2], peakHeapMB: float64(t.peak) / (1 << 20)}
	if busy := d[4] - d[5]; busy > 0 {
		rt.gcCPUFrac = d[3] / busy
	}
	cpu, err := cpuByLayer(t.prof.Bytes())
	return cpu, rt, err
}
