package main

import (
	"sort"

	"hetis/internal/engine"
	"hetis/internal/metrics"
	"hetis/internal/scenario"
	"hetis/internal/workload"
)

// The result table of an unsharded, chaos-free scenario run, built from the
// run's sinks the way the scenario harness builds it: the aggregate row,
// then one row per tenant of a multi-tenant trace. The fidelity test pins
// these rows byte-for-byte against scenario.RunEngine.

// exactRows fills the table from an exact recorder.
func exactRows(tab *metrics.Table, spec scenario.Spec, engineName string, reqs []workload.Request, res *engine.Result, rec *metrics.Recorder) {
	ttft, tpot, norm := rec.Summaries()
	tab.AddRow(spec.Name, engineName, "all",
		len(reqs), rec.Completed(),
		rec.Goodput(spec.SLO, res.Horizon),
		100*rec.Attainment(spec.SLO),
		ttft.P95, tpot.P95, norm.Mean)
	if !multiTenant(reqs) {
		return
	}
	byTenant := map[string]metrics.TenantStats{}
	for _, ts := range rec.PerTenant(spec.SLO, res.Horizon) {
		byTenant[ts.Tenant] = ts
	}
	offered := offeredByTenant(reqs)
	for _, tenant := range sortedKeys(offered) {
		ts := byTenant[tenant]
		tab.AddRow(spec.Name, engineName, tenant,
			offered[tenant], ts.Count,
			ts.Goodput, 100*ts.Attainment,
			ts.TTFT.P95, ts.TPOT.P95, ts.NormLat.Mean)
	}
}

// streamRows fills the table from streaming-sink snapshots: agg is the
// aggregate view, mux the per-tenant split (nil for a single-tenant trace).
func streamRows(tab *metrics.Table, spec scenario.Spec, engineName string, reqs []workload.Request, res *engine.Result, agg metrics.Sink, mux *metrics.TenantMux) {
	snap := agg.Snapshot()
	tab.AddRow(spec.Name, engineName, "all",
		len(reqs), snap.Count,
		snap.Goodput(res.Horizon), 100*snap.Attainment(),
		snap.TTFT.P95, snap.TPOT.P95, snap.NormLat.Mean)
	if mux == nil {
		return
	}
	offered := offeredByTenant(reqs)
	for _, tenant := range sortedKeys(offered) {
		var ts metrics.Snapshot
		if sub := mux.Tenant(tenant); sub != nil {
			ts = sub.Snapshot()
		}
		tab.AddRow(spec.Name, engineName, tenant,
			offered[tenant], ts.Count,
			ts.Goodput(res.Horizon), 100*ts.Attainment(),
			ts.TTFT.P95, ts.TPOT.P95, ts.NormLat.Mean)
	}
}

func multiTenant(reqs []workload.Request) bool {
	for _, r := range reqs {
		if r.Tenant != "" {
			return true
		}
	}
	return false
}

func offeredByTenant(reqs []workload.Request) map[string]int {
	offered := map[string]int{}
	for _, r := range reqs {
		offered[r.Tenant]++
	}
	return offered
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
