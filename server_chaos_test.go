package els_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestServerChaos is the networked serving soak: a multi-tenant wire
// server hosts durable tenant bulkheads while per-tenant client swarms
// issue estimates, executed queries, mutations, deadline-bounded calls,
// and overload floods; saboteur clients tear frames, corrupt checksums,
// and vanish mid-request; one tenant is poisoned into quarantine by
// injected panics; and the server drains gracefully under live traffic
// before restarting over the same data root. The audits: estimates never
// cross a tenant boundary (every probe lands in its tenant's published
// cardinality band at its pinned version), every client-observed failure
// matches a public taxonomy sentinel, the drain leaks no connection or
// admission slot, and every tenant — including the quarantined one —
// recovers its exact pre-drain catalog identity (version:digest). Run
// with -race in CI; CHAOS_LOG captures the JSONL event log artifact.
func TestServerChaos(t *testing.T) {
	cfg := chaos.ServerConfig{
		Seed:             42,
		DataRoot:         t.TempDir(),
		Tenants:          3,
		WorkersPerTenant: 4,
		OpsPerWorker:     30,
	}
	if testing.Short() {
		cfg.WorkersPerTenant = 3
		cfg.OpsPerWorker = 12
	}
	if logF := chaosLog(t); logF != nil {
		cfg.LogW = logF
	}

	checkLeaks := leakCheck(t, 5*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := chaos.RunServer(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Ops == 0 {
		t.Fatal("the fleet issued no operations")
	}
	if rep.Succeeded == 0 {
		t.Error("no operation succeeded — the storm drowned the server entirely")
	}
	if rep.Observations == 0 {
		t.Error("no isolation observation collected — the cross-tenant audit never ran")
	}
	if rep.PoisonedTenant == "" {
		t.Error("no tenant was poisoned")
	}
	if len(rep.Digests) != cfg.Tenants {
		t.Errorf("recovered %d tenant digests, want %d", len(rep.Digests), cfg.Tenants)
	}
	if rep.ErrorsByClass["overloaded"] == 0 {
		t.Error("no overload shed observed — the swarm never contended the admission queue")
	}
	t.Logf("server chaos: %d ops (%d ok), %d observations, drain %.1fms, poisoned %s, errors %v",
		rep.Ops, rep.Succeeded, rep.Observations, rep.DrainMillis, rep.PoisonedTenant, rep.ErrorsByClass)
	checkLeaks()
}
