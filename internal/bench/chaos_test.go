package bench

import (
	"testing"

	"hetis/internal/engine"
	"hetis/internal/scenario"
)

// TestChaoticScenarioBenchRunsChaos pins that a bench row times the run
// the scenario defines, chaos included: on full-scale failover every
// engine's bench events equal the events of the run RunEngine serves
// (spec.EngineConfig through engine.NewByName), which carries two failure
// windows and so differs from the healthy deployment's.
func TestChaoticScenarioBenchRunsChaos(t *testing.T) {
	rep, err := Run(Options{Scenarios: []string{"failover"}, SkipMicro: true, SkipSinks: true, SkipFleet: true})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.ByName("failover")
	if err != nil {
		t.Fatal(err)
	}
	spec = scenario.Prepare(spec, false)
	reqs, err := spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Chaos.Active() {
		t.Fatal("failover compiles to an inert chaos config")
	}
	want := map[string]uint64{"hetis": 3605, "hexgen": 3173, "vllm": 4776, "splitwise": 3877}
	if len(rep.Suite.Scenarios) != len(want) {
		t.Fatalf("measured %d pairs want %d", len(rep.Suite.Scenarios), len(want))
	}
	for _, sb := range rep.Suite.Scenarios {
		runs := map[string]uint64{}
		for mode, chaos := range map[string]*engine.ChaosConfig{"chaos": cfg.Chaos, "healthy": nil} {
			c := cfg
			c.Chaos = chaos
			eng, err := engine.NewByName(sb.Engine, c, reqs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(reqs, scenario.MeasurementHorizon(spec.Duration))
			if err != nil {
				t.Fatal(err)
			}
			runs[mode] = res.Events
		}
		if sb.Events != runs["chaos"] || sb.Events != want[sb.Engine] {
			t.Errorf("%s: bench timed %d events, want the chaotic run's %d (pinned %d)", sb.Engine, sb.Events, runs["chaos"], want[sb.Engine])
		}
		if runs["healthy"] == runs["chaos"] {
			t.Errorf("%s: healthy and chaotic runs both take %d events; the test cannot tell them apart", sb.Engine, sb.Events)
		}
	}
}
