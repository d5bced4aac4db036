package els_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestChaosMemoryPressure is the memory-governance soak: three durable
// tenants share one wire server and one process-wide memory pool; the
// hog tenant hammers an oversized join under a per-query byte budget far
// below its build side, with a swarm big enough to overflow its pool
// share, while two neighbor tenants run a steady light workload
// throughout. The audits: the hog both sheds (typed, retryable, with a
// Retry-After hint) and spills to disk; every neighbor query succeeds
// with zero pool sheds and zero spills — degradation stays inside the
// hog's bulkhead; the pool returns to zero reservation; and no *.spill
// file survives the drain anywhere under the data root. Run with -race
// in CI; CHAOS_LOG captures the JSONL event log artifact.
func TestChaosMemoryPressure(t *testing.T) {
	cfg := chaos.MemoryConfig{
		Seed:            42,
		DataRoot:        t.TempDir(),
		HogWorkers:      6,
		NeighborWorkers: 2,
		OpsPerWorker:    12,
	}
	if testing.Short() {
		cfg.HogWorkers = 5
		cfg.OpsPerWorker = 8
	}
	if logF := chaosLog(t); logF != nil {
		cfg.LogW = logF
	}

	checkLeaks := leakCheck(t, 5*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := chaos.RunMemoryPressure(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.HogOps == 0 {
		t.Fatal("the hog swarm issued no queries")
	}
	if rep.HogSucceeded == 0 {
		t.Error("no hog query completed — the budget starved the tenant entirely instead of spilling")
	}
	if rep.NeighborOps == 0 {
		t.Fatal("the neighbor swarms issued no queries")
	}
	t.Logf("memory pressure: hog %d ops (%d ok, %d shed, %d spilled); neighbors %d ops, p99 %.1fms",
		rep.HogOps, rep.HogSucceeded, rep.HogShed, rep.HogSpilled,
		rep.NeighborOps, rep.NeighborP99Millis)
	checkLeaks()
}
