// Package scenario turns the simulator into a scenario catalog: a
// declarative Spec names a traffic shape (steady, bursty, diurnal,
// flash-crowd, closed-loop), a multi-tenant workload mix, a latency SLO,
// and the engines to run it on. Scenarios are registered by name, runnable
// standalone, through the sweep pool, or as a hetisbench flag, and every
// registered scenario is pinned by a golden-trace regression file under
// testdata/ so a scheduling change anywhere in the stack surfaces as a
// reviewable diff instead of a silent drift.
package scenario

import (
	"fmt"
	"math/rand"

	"hetis/internal/engine"
	"hetis/internal/fleet"
	"hetis/internal/metrics"
	"hetis/internal/model"
	"hetis/internal/workload"
)

// Traffic kinds.
const (
	KindPoisson    = "poisson"
	KindMMPP       = "mmpp"
	KindDiurnal    = "diurnal"
	KindFlashCrowd = "flashcrowd"
	KindClosedLoop = "closedloop"
)

// Traffic declaratively describes an arrival process. Time-shape
// parameters (Cycles, SpikeStart, SpikeFrac) are fractions of the trace
// duration, so shrinking a scenario (Quick mode) shrinks the whole shape
// instead of pushing the interesting part past the end of the trace.
type Traffic struct {
	// Kind selects the process: poisson, mmpp, diurnal, flashcrowd,
	// closedloop.
	Kind string

	// Rate is the base arrival rate in req/s (poisson, diurnal,
	// flashcrowd).
	Rate float64

	// States is the cyclic MMPP state list (mmpp).
	States []workload.MMPPState

	// Amplitude is the diurnal rate swing as a fraction of Rate in [0, 1];
	// Cycles is how many full sinusoid periods fit in the trace
	// (default 1).
	Amplitude float64
	Cycles    float64

	// SpikeStart and SpikeFrac place the flash-crowd spike as fractions of
	// the trace duration; SpikeFactor multiplies Rate during the spike.
	SpikeStart  float64
	SpikeFrac   float64
	SpikeFactor float64

	// Users and Think describe the closed-loop population: Users sessions
	// each pausing Exp(Think) seconds between requests.
	Users int
	Think float64
}

// Validate reports traffic description errors.
func (t Traffic) Validate() error {
	switch t.Kind {
	case KindPoisson, KindDiurnal:
		if t.Rate <= 0 {
			return fmt.Errorf("scenario: %s traffic needs Rate > 0", t.Kind)
		}
	case KindFlashCrowd:
		if t.Rate <= 0 {
			return fmt.Errorf("scenario: %s traffic needs Rate > 0", t.Kind)
		}
		// A flash crowd without a real spike would silently degenerate to
		// steady Poisson under the scenario's label.
		if t.SpikeFrac <= 0 || t.SpikeFactor <= 0 {
			return fmt.Errorf("scenario: flashcrowd traffic needs SpikeFrac > 0 and SpikeFactor > 0")
		}
		if t.SpikeStart < 0 || t.SpikeStart+t.SpikeFrac > 1 {
			return fmt.Errorf("scenario: flashcrowd spike window [%g, %g] outside the trace (fractions of duration)",
				t.SpikeStart, t.SpikeStart+t.SpikeFrac)
		}
	case KindMMPP:
		if len(t.States) == 0 {
			return fmt.Errorf("scenario: mmpp traffic needs States")
		}
		for i, st := range t.States {
			if st.Rate < 0 || st.MeanDwell <= 0 {
				return fmt.Errorf("scenario: mmpp state %d invalid (rate %g, dwell %g)", i, st.Rate, st.MeanDwell)
			}
		}
	case KindClosedLoop:
		if t.Users <= 0 || t.Think <= 0 {
			return fmt.Errorf("scenario: closedloop traffic needs Users > 0 and Think > 0")
		}
	default:
		return fmt.Errorf("scenario: unknown traffic kind %q", t.Kind)
	}
	return nil
}

// Times generates the arrival times over [0, duration).
func (t Traffic) Times(duration float64, rng *rand.Rand) []float64 {
	switch t.Kind {
	case KindPoisson:
		return workload.PoissonTimes(t.Rate, duration, rng)
	case KindMMPP:
		return workload.MMPPTimes(t.States, duration, rng)
	case KindDiurnal:
		cycles := t.Cycles
		if cycles <= 0 {
			cycles = 1
		}
		return workload.DiurnalTimes(t.Rate, t.Amplitude, duration/cycles, duration, rng)
	case KindFlashCrowd:
		return workload.FlashCrowdTimes(t.Rate, t.SpikeStart*duration, t.SpikeFrac*duration, t.SpikeFactor, duration, rng)
	case KindClosedLoop:
		return workload.ClosedLoopTimes(t.Users, t.Think, duration, rng)
	}
	return nil
}

// MeanRate estimates the long-run offered rate in req/s, for display.
func (t Traffic) MeanRate() float64 {
	switch t.Kind {
	case KindPoisson, KindDiurnal:
		return t.Rate
	case KindFlashCrowd:
		return t.Rate * (1 + t.SpikeFrac*(t.SpikeFactor-1))
	case KindMMPP:
		var rate, dwell float64
		for _, st := range t.States {
			rate += st.Rate * st.MeanDwell
			dwell += st.MeanDwell
		}
		if dwell == 0 {
			return 0
		}
		return rate / dwell
	case KindClosedLoop:
		if t.Think == 0 {
			return 0
		}
		return float64(t.Users) / t.Think
	}
	return 0
}

// DefaultSLO is the latency objective scenarios inherit when they do not
// set one: first token within 1.5 s, then 0.1 s per token (a conversational
// read-speed target tight enough that overloaded engines visibly miss it).
var DefaultSLO = metrics.SLOTarget{TTFT: 1.5, TPOT: 0.1}

// FailureEvent takes one replica out of service for a window of the trace.
// Start and End are fractions of Duration (like the flash-crowd spike), so
// Quick scaling shrinks the outage with the trace; End past 1 reaches into
// the drain tail. HaulKV decides whether the victims' KV cache migrates to
// survivors over the interconnect or is lost (full re-prefill).
type FailureEvent struct {
	Replica    int
	Start, End float64
	HaulKV     bool
}

// AutoscaleSpec is the scenario face of the SLO-driven replica controller.
// Interval and Lag are fractions of Duration; thresholds are attainment
// fractions in [0, 1]. The controller measures against the spec's SLO.
type AutoscaleSpec struct {
	MinReplicas, MaxReplicas int
	Interval, Lag            float64
	UpBelow, DownAbove       float64
}

// TierSpec is one priority class of a tiered scenario: the tenants it
// covers (empty = catch-all), its preemption priority, and an optional
// admission cap on in-flight requests.
type TierSpec struct {
	Name        string
	Tenants     []string
	Priority    int
	MaxInflight int
}

// FleetSpec shards a scenario across independent cluster replicas behind
// a front-door router (see internal/fleet). Each shard serves its routed
// slice of the trace on its own engine, calendar queue, trace arena and
// sink, concurrently with its siblings; the results merge in shard-index
// order, so the scenario's output is byte-identical at any shard-worker
// count.
type FleetSpec struct {
	// Shards is the replica count (>= 1; 2+ for anything interesting).
	Shards int
	// Policy is the routing policy: fleet.PolicyWeighted (the default),
	// fleet.PolicyLeastLoaded, or fleet.PolicyAffinity.
	Policy string
	// Weights optionally skews routing shares, one positive weight per
	// shard (nil = uniform).
	Weights []float64
}

// policy resolves the default routing policy.
func (f *FleetSpec) policy() string {
	if f.Policy == "" {
		return fleet.PolicyWeighted
	}
	return f.Policy
}

// Spec is a declarative serving scenario.
type Spec struct {
	Name        string
	Description string

	// Traffic is the arrival process.
	Traffic Traffic
	// Mix is the weighted multi-tenant workload mix; empty means
	// single-tenant ShareGPT.
	Mix []workload.MixEntry
	// SLO is the latency objective goodput is measured against; zero takes
	// DefaultSLO.
	SLO metrics.SLOTarget

	// Model and Cluster pick the deployment; defaults: Llama-13B on the
	// paper cluster.
	Model   string
	Cluster string
	// Engines lists the systems to run, in row order; default hetis,
	// hexgen, splitwise.
	Engines []string

	// Duration is the trace length in simulated seconds (default 40);
	// Seed drives all sampling (default 1).
	Duration float64
	Seed     int64

	// Replicas is the initial fleet width: the engine's deployment is
	// replicated that many times (0 or 1 = the legacy single deployment).
	Replicas int
	// FailurePlan schedules replica failures over the trace.
	FailurePlan []FailureEvent
	// Autoscale enables the SLO-driven replica controller.
	Autoscale *AutoscaleSpec
	// Tiers splits the tenants into priority classes with admission control
	// and preemption.
	Tiers []TierSpec

	// Fleet shards the run across independent cluster replicas behind a
	// deterministic front-door router — the intra-run parallelism layer.
	// Mutually exclusive with the chaos fields above: chaos rewires one
	// cluster's replica set from inside the engine, Fleet replicates whole
	// clusters from outside it.
	Fleet *FleetSpec

	// Heavy marks large-scale scenarios (megascale and friends) that
	// catalog-wide expansions — the bench suite, "-scenario all", the
	// scenarios experiment — skip unless the scenario is named explicitly.
	// Heavy scenarios are built for the streaming sink; running them with
	// the exact recorder works but holds O(requests) memory.
	Heavy bool
	// GoldenDuration is the trace length the golden-trace harness pins the
	// scenario at. Zero means Duration. Heavy scenarios must set it: a
	// million-request exact replay per `go test` is exactly what the
	// golden referee must not cost, while a shortened trace still pins
	// every scheduling path byte-for-byte.
	GoldenDuration float64
}

// WithDefaults fills unset fields.
func (s Spec) WithDefaults() Spec {
	if s.SLO.IsZero() {
		s.SLO = DefaultSLO
	}
	if s.Model == "" {
		s.Model = model.Llama13B.Name
	}
	if s.Cluster == "" {
		s.Cluster = "paper"
	}
	if len(s.Engines) == 0 {
		s.Engines = []string{"hetis", "hexgen", "splitwise"}
	}
	if s.Duration <= 0 {
		s.Duration = 40
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Validate reports spec errors. It validates the defaulted spec, so a
// partially specified spec is fine.
func (s Spec) Validate() error {
	s = s.WithDefaults()
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if err := s.Traffic.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := workload.ValidateMix(s.Mix); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if _, err := model.ByName(s.Model); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if _, err := ClusterByName(s.Cluster); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	for _, e := range s.Engines {
		if !engine.Known(e) {
			return fmt.Errorf("scenario %s: unknown engine %q", s.Name, e)
		}
	}
	if s.GoldenDuration < 0 {
		return fmt.Errorf("scenario %s: negative GoldenDuration %g", s.Name, s.GoldenDuration)
	}
	if s.Heavy && s.GoldenDuration <= 0 {
		return fmt.Errorf("scenario %s: heavy scenarios must set GoldenDuration (the golden harness cannot replay them at full scale)", s.Name)
	}
	for i, fe := range s.FailurePlan {
		if fe.Start < 0 || fe.End <= fe.Start {
			return fmt.Errorf("scenario %s: failure %d: bad window fractions [%g, %g)", s.Name, i, fe.Start, fe.End)
		}
	}
	// The engine layer validates the compiled form (autoscale bounds and
	// thresholds, tier names, replica counts).
	if err := s.chaosConfig().Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if f := s.Fleet; f != nil {
		if s.chaosConfig() != nil {
			return fmt.Errorf("scenario %s: Fleet cannot combine with chaos fields (Replicas/FailurePlan/Autoscale/Tiers) — chaos rewires one cluster, Fleet replicates clusters", s.Name)
		}
		// The router constructor owns shard/policy/weight validation.
		if _, err := fleet.NewRouter(f.policy(), f.Shards, f.Weights); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	return nil
}

// Sharded reports whether the spec runs as a fleet of shards. Sharded
// scenarios are excluded from SuiteNames like chaotic ones: catalog-wide
// expansions keep their single-cluster baselines comparable, and fleet
// scaling is measured by its own bench section.
func (s Spec) Sharded() bool { return s.Fleet != nil }

// Chaotic reports whether the spec's chaos fields can change behaviour:
// chaotic scenarios get extra table columns and are excluded from
// SuiteNames (catalog-wide expansions keep their healthy baselines).
func (s Spec) Chaotic() bool {
	return s.WithDefaults().chaosConfig().Active()
}

// EngineConfig resolves the spec's model and cluster into the engine
// configuration every harness runs it with: engine.DefaultConfig with the
// spec's chaos compiled in. Call on a prepared spec (see Prepare), so
// fractional chaos times scale by the effective Duration.
func (s Spec) EngineConfig() (engine.Config, error) {
	m, err := model.ByName(s.Model)
	if err != nil {
		return engine.Config{}, err
	}
	cluster, err := ClusterByName(s.Cluster)
	if err != nil {
		return engine.Config{}, err
	}
	cfg := engine.DefaultConfig(m, cluster)
	cfg.Chaos = s.chaosConfig()
	return cfg, nil
}

// chaosConfig compiles the spec's chaos fields for the engine layer,
// scaling fractional times by the (possibly Quick-shrunk) Duration. Call
// on a defaulted spec; returns nil when no chaos field is set.
func (s Spec) chaosConfig() *engine.ChaosConfig {
	if s.Replicas == 0 && len(s.FailurePlan) == 0 && s.Autoscale == nil && len(s.Tiers) == 0 {
		return nil
	}
	c := &engine.ChaosConfig{Replicas: s.Replicas}
	for _, fe := range s.FailurePlan {
		c.Failures = append(c.Failures, engine.FailureWindow{
			Replica: fe.Replica,
			Start:   fe.Start * s.Duration,
			End:     fe.End * s.Duration,
			HaulKV:  fe.HaulKV,
		})
	}
	if a := s.Autoscale; a != nil {
		c.Autoscale = &engine.AutoscalePolicy{
			MinReplicas: a.MinReplicas,
			MaxReplicas: a.MaxReplicas,
			Interval:    a.Interval * s.Duration,
			Lag:         a.Lag * s.Duration,
			UpBelow:     a.UpBelow,
			DownAbove:   a.DownAbove,
			SLO:         s.SLO,
		}
	}
	for _, t := range s.Tiers {
		c.Tiers = append(c.Tiers, engine.Tier{
			Name:        t.Name,
			Tenants:     t.Tenants,
			Priority:    t.Priority,
			MaxInflight: t.MaxInflight,
		})
	}
	return c
}

// tierOf maps a tenant to its tier name under the spec's tier list (first
// tier listing the tenant, else the catch-all), or "" when untiered.
func (s Spec) tierOf(tenant string) string {
	catchAll := ""
	for _, t := range s.Tiers {
		if len(t.Tenants) == 0 {
			catchAll = t.Name
			continue
		}
		for _, tn := range t.Tenants {
			if tn == tenant {
				return t.Name
			}
		}
	}
	return catchAll
}

// ForGolden returns the spec the golden-trace harness runs: the scenario
// at its GoldenDuration (when set), everything else untouched.
func (s Spec) ForGolden() Spec {
	if s.GoldenDuration > 0 {
		s.Duration = s.GoldenDuration
	}
	return s
}

// Trace generates the scenario's request trace: arrival times from the
// traffic process, tenants and lengths from the mix. Deterministic in
// (spec, Seed).
func (s Spec) Trace() ([]workload.Request, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	times := s.Traffic.Times(s.Duration, rand.New(rand.NewSource(s.Seed)))
	// The mix draws from an independent stream so reshaping traffic does
	// not reshuffle tenant assignments and lengths.
	return workload.Assemble(times, s.Mix, s.Seed+1), nil
}
