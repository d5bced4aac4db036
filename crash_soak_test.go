package els_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/chaos"
)

// TestCrashRecoverySoak is the durability soak: a mutator fleet hammers a
// durable system while simulated process kills land at every durable-layer
// probe point (mid-WAL-record, pre-fsync, mid-checkpoint-write,
// pre-rename, post-rename-pre-truncate); each kill is followed by a
// recovery that the harness audits against the acknowledge contract —
// recovery yields exactly the last acknowledged version (or the one
// allowed in-flight record), acknowledged mutations never vanish, and
// recovered estimates are bit-identical at the same version. Run with
// -race in CI; CHAOS_LOG captures the event log artifact.
func TestCrashRecoverySoak(t *testing.T) {
	cfg := chaos.CrashConfig{
		Seed:                42,
		Dir:                 t.TempDir(),
		Rounds:              15,
		MutationsPerMutator: 25,
	}
	if testing.Short() {
		cfg.Rounds = 6
		cfg.MutationsPerMutator = 12
	}
	if logF := chaosLog(t); logF != nil {
		cfg.LogW = logF
	}

	checkLeaks := leakCheck(t, 0)
	rep, err := chaos.RunCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Rounds != cfg.Rounds {
		t.Errorf("completed %d rounds, want %d", rep.Rounds, cfg.Rounds)
	}
	if rep.Crashes == 0 {
		t.Error("no injected crash landed — the soak never exercised recovery under fire")
	}
	if rep.MutationsAcked == 0 {
		t.Error("no mutation was acknowledged")
	}
	if rep.BitIdenticalChecks == 0 {
		t.Error("no bit-identical estimate comparison ran")
	}
	if rep.Digest == "" {
		t.Error("no recovered-catalog digest produced")
	}
	t.Logf("crash soak: %d rounds (%d crashes, %d clean), %d acked, %d torn tails, %d ahead, %d bit-identical checks, final v%d digest %.12s",
		rep.Rounds, rep.Crashes, rep.CleanShutdowns, rep.MutationsAcked,
		rep.TornTails, rep.RecoveredAhead, rep.BitIdenticalChecks, rep.FinalVersion, rep.Digest)

	// CI archives the recovered catalog's digest so a contract regression
	// is diffable across runs (CRASH_DIGEST names the artifact file).
	if path := os.Getenv("CRASH_DIGEST"); path != "" {
		line := fmt.Sprintf("seed=%d rounds=%d final_version=%d sha256=%s\n",
			cfg.Seed, rep.Rounds, rep.FinalVersion, rep.Digest)
		if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
			t.Errorf("writing CRASH_DIGEST: %v", err)
		}
	}
	checkLeaks()
}

// TestCrashRecoveryDeterministic pins that the deterministic soak mode is
// replayable: two runs from the same seed recover catalogs with identical
// digests at the same final version — the property the CI crash-smoke job
// archives.
func TestCrashRecoveryDeterministic(t *testing.T) {
	run := func() *chaos.CrashReport {
		rep, err := chaos.RunCrash(chaos.CrashConfig{
			Seed:                7,
			Dir:                 t.TempDir(),
			Rounds:              8,
			MutationsPerMutator: 10,
			Deterministic:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		return rep
	}
	a, b := run(), run()
	if a.Digest == "" || a.Digest != b.Digest {
		t.Errorf("same-seed digests differ: %s vs %s", a.Digest, b.Digest)
	}
	if a.FinalVersion != b.FinalVersion {
		t.Errorf("same-seed final versions differ: %d vs %d", a.FinalVersion, b.FinalVersion)
	}
}
