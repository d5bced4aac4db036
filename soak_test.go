package els_test

import (
	"os"
	"runtime"
	"testing"
	"time"

	els "repro"
	"repro/internal/chaos"
)

// chaosLog opens the event-log sink named by the CHAOS_LOG environment
// variable (the artifact CI uploads), or returns nil for no logging. The
// file is opened in append mode so every soak test in the run contributes
// to one log.
func chaosLog(t *testing.T) *os.File {
	path := os.Getenv("CHAOS_LOG")
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("CHAOS_LOG: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// goroutineCount waits for the runtime's goroutine count to settle and
// returns it, so storms that finished a moment ago don't read as leaks.
func goroutineCount() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// leakCheck snapshots the goroutine count before a run and returns the
// check to call after it: the test fails, with a stack dump, if the count
// grew. settle > 0 first waits up to that long for closed-connection
// goroutines to be reaped.
func leakCheck(t *testing.T, settle time.Duration) func() {
	before := goroutineCount()
	return func() {
		t.Helper()
		deadline := time.Now().Add(settle)
		for settle > 0 && goroutineCount() > before && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if after := goroutineCount(); after > before {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before the run, %d after\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestChaosSoak storms the serving layer — concurrent workers, catalog
// mutation, and fault injection (errors, panics, latency) — and asserts
// the audited contracts: taxonomy-complete errors, version-consistent
// estimates, a clean drain, and no goroutine leaks. Run with -race in CI.
func TestChaosSoak(t *testing.T) {
	cfg := chaos.Config{
		Seed:         42,
		Workers:      8,
		OpsPerWorker: 60,
		Retry:        els.RetryPolicy{MaxAttempts: 3, BaseDelay: 200 * time.Microsecond, Seed: 42},
	}
	if testing.Short() {
		cfg.Workers = 4
		cfg.OpsPerWorker = 25
	}
	if logF := chaosLog(t); logF != nil {
		cfg.LogW = logF
	}

	checkLeaks := leakCheck(t, 0)
	rep, err := chaos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Ops != cfg.Workers*cfg.OpsPerWorker {
		t.Errorf("ops %d, want %d", rep.Ops, cfg.Workers*cfg.OpsPerWorker)
	}
	if rep.Succeeded == 0 {
		t.Error("no operation succeeded — the storm drowned the system")
	}
	if rep.Observations == 0 {
		t.Error("no version-consistency observations collected")
	}
	if rep.VersionsPublished < 2 {
		t.Errorf("mutator published only %d versions", rep.VersionsPublished)
	}
	t.Logf("storm: %d ops, %d ok, %d versions, %d observations, errors %v",
		rep.Ops, rep.Succeeded, rep.VersionsPublished, rep.Observations, rep.ErrorsByClass)
	checkLeaks()
}

// TestChaosCacheSoak storms the plan cache: workers re-issue a Zipf-skewed
// statement pool while the mutator publishes catalog versions mid-flight.
// The torn-read audit proves no query was ever served a plan or estimate
// from a version other than its pinned Estimate.CatalogVersion, and the
// quiesced warm-path audit proves repeats actually hit the cache with
// bit-identical estimates.
func TestChaosCacheSoak(t *testing.T) {
	cfg := chaos.Config{
		Seed:         19,
		Workers:      8,
		OpsPerWorker: 80,
	}
	if testing.Short() {
		cfg.Workers = 4
		cfg.OpsPerWorker = 30
	}
	if logF := chaosLog(t); logF != nil {
		cfg.LogW = logF
	}
	rep, err := chaos.RunCacheSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Succeeded == 0 {
		t.Error("no operation succeeded")
	}
	if rep.Observations == 0 {
		t.Error("no version-consistency observations collected")
	}
	if rep.VersionsPublished < 2 {
		t.Errorf("mutator published only %d versions", rep.VersionsPublished)
	}
	if rep.Cache.Hits == 0 {
		t.Error("storm produced no cache hits despite a repeated workload")
	}
	if rep.Cache.Invalidations == 0 {
		t.Error("version bumps retired no cache entries")
	}
	t.Logf("cache storm: %d ops, %d ok, %d versions, cache %+v",
		rep.Ops, rep.Succeeded, rep.VersionsPublished, rep.Cache)
}

// TestChaosSoakWithBreaker repeats the storm with the circuit breaker
// armed: injected internal-error bursts trip it, and shed queries must
// still classify as overloaded — never as unclassified leaks.
func TestChaosSoakWithBreaker(t *testing.T) {
	cfg := chaos.Config{
		Seed:         7,
		Workers:      6,
		OpsPerWorker: 40,
		Breaker:      els.BreakerPolicy{Threshold: 2, Cooldown: 2 * time.Millisecond},
	}
	if testing.Short() {
		cfg.Workers = 3
		cfg.OpsPerWorker = 20
	}
	rep, err := chaos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Succeeded == 0 {
		t.Error("no operation succeeded")
	}
	t.Logf("storm: %d ops, %d ok, errors %v, breaker opens %d",
		rep.Ops, rep.Succeeded, rep.ErrorsByClass, rep.Stats.BreakerOpens)
}
