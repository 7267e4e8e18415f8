package engine

import (
	"fmt"

	"hetis/internal/hardware"
	"hetis/internal/parallelizer"
	"hetis/internal/perf"
	"hetis/internal/workload"
)

// VLLM is a homogeneous reference system: vLLM-style tensor-parallel
// serving on the cluster's top GPU tier only, ignoring every low-end
// device. It answers the motivating question of §1 — how much do the
// heterogeneous leftovers actually buy — by providing the
// high-end-only floor that Hetis must beat to justify itself.
type VLLM struct {
	cfg  Config
	est  *perf.Estimator
	pipe *staticPipeline
}

// NewVLLM builds the reference engine on the highest-tier GPU type.
func NewVLLM(cfg Config) (*VLLM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	est := perf.New(cfg.Model)
	groups := cfg.Cluster.DevicesByType()
	top := groups[:1]
	pipe, err := buildStaticPipeline(cfg, est, cfg.Cluster, top, 32)
	if err != nil {
		return nil, fmt.Errorf("engine: vllm: %w", err)
	}
	return &VLLM{cfg: cfg, est: est, pipe: pipe}, nil
}

// Name implements Engine.
func (v *VLLM) Name() string { return "vllm" }

// CacheCapacity implements Engine.
func (v *VLLM) CacheCapacity() int64 { return v.pipe.cacheCapacityBytes(v.cfg.Model) }

// Stages exposes the layout.
func (v *VLLM) Stages() []parallelizer.Stage { return v.pipe.stages }

// Devices lists the GPUs the reference engine actually uses.
func (v *VLLM) Devices() []hardware.DeviceID {
	var out []hardware.DeviceID
	for _, st := range v.pipe.stages {
		out = append(out, st.Devices...)
	}
	return out
}

// Run implements Engine, reusing the colocated static runtime.
func (v *VLLM) Run(reqs []workload.Request, horizon float64) (*Result, error) {
	res, _, err := runStatic(v.Name(), v.cfg, v.est, v.pipe, v.CacheCapacity(), reqs, horizon)
	return res, err
}
