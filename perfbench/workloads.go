package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"hetis/internal/scenario"
)

// A benchWorkload is one named replay: a registered scenario resized to a fixed
// input, the single engine that serves it, and the measurement path it
// takes. Every workload replays a pre-generated open-loop arrival trace in
// simulated time; see README.md for why each was chosen.
type benchWorkload struct {
	name string
	// scenario is the registered spec the workload derives from.
	scenario string
	engine   string
	// rate, when nonzero, overrides the scenario's Poisson rate (req/s).
	rate float64
	// duration, when nonzero, overrides the scenario's trace length in
	// simulated seconds.
	duration float64
	// stream measures through the scenario's streaming sinks with the event
	// trace off; otherwise the exact recorder and event trace are on.
	stream bool
	// limit is the livelock guard: a replay still running after this much
	// wall time is killed and all its requests count as failed.
	limit time.Duration
}

var workloads = []benchWorkload{
	{name: "hetis-chat", scenario: "steady", engine: "hetis", rate: 4, duration: 3200, limit: 30 * time.Second},
	{name: "vllm-day", scenario: "megascale", engine: "vllm", stream: true, limit: 60 * time.Second},
	{name: "fleet-mix", scenario: "fleet", engine: "hetis", rate: 4, duration: 3200, limit: 30 * time.Second},
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// spec returns the workload's effective scenario spec for a seed, at full
// size or, with golden set, at the scenario's golden-trace length.
func (w benchWorkload) spec(seed int64, golden bool) (scenario.Spec, error) {
	s, err := scenario.ByName(w.scenario)
	if err != nil {
		return scenario.Spec{}, err
	}
	s.Name = w.name
	s.Engines = []string{w.engine}
	s.Seed = seed
	if w.rate > 0 {
		s.Traffic.Rate = w.rate
	}
	if golden {
		s = s.ForGolden()
	} else if w.duration > 0 {
		s.Duration = w.duration
	}
	s = s.WithDefaults()
	return s, s.Validate()
}

// specDigest is a short SHA-256 of the effective spec, so an output names
// exactly the input it measured.
func specDigest(s scenario.Spec) string {
	b, err := json.Marshal(s)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
