package els_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// replicationDirs lays out one primary directory and n replica
// directories with stable base names (the base name becomes the replica
// ID, and the soak's determinism audit depends on it).
func replicationDirs(t *testing.T, n int) (string, []string) {
	t.Helper()
	root := t.TempDir()
	primary := filepath.Join(root, "primary")
	var reps []string
	for i := 0; i < n; i++ {
		reps = append(reps, filepath.Join(root, fmt.Sprintf("r%d", i)))
	}
	return primary, reps
}

// TestReplicationChaos is the replication soak: a primary ships WAL frames
// to a replica fleet while injected faults drop, delay, corrupt, and
// truncate frames on the wire, kill the primary and follower disks
// mid-ship, and silently corrupt a follower's replayed catalog. The
// harness audits the replication contract every round: the digest audit
// catches every injected divergence (quarantining the follower with
// ErrDiverged), acknowledged mutations reach every settled live follower,
// and quiesced reads past Limits.MaxReplicaLag are rejected with
// ErrStaleReplica. Run with -race in CI; CHAOS_LOG captures the event log
// and REPL_DIGEST the per-follower digest artifact.
func TestReplicationChaos(t *testing.T) {
	primary, reps := replicationDirs(t, 3)
	cfg := chaos.ReplicationConfig{
		Seed:              42,
		PrimaryDir:        primary,
		ReplicaDirs:       reps,
		Rounds:            18, // two full passes over the 9-kind fault rotation
		MutationsPerRound: 20,
		MaxReplicaLag:     3,
	}
	if testing.Short() {
		cfg.Rounds = 9 // one full pass
		cfg.MutationsPerRound = 10
	}
	if logF := chaosLog(t); logF != nil {
		cfg.LogW = logF
	}

	checkLeaks := leakCheck(t, 0)
	rep, err := chaos.RunReplication(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Rounds != cfg.Rounds {
		t.Errorf("completed %d rounds, want %d", rep.Rounds, cfg.Rounds)
	}
	if rep.MutationsAcked == 0 {
		t.Error("no mutation was acknowledged")
	}
	if rep.FramesShipped == 0 {
		t.Error("no frame was shipped")
	}
	if rep.DivergencesInjected == 0 {
		t.Error("no divergence was injected — the soak never exercised the digest audit under fire")
	}
	if rep.DivergencesDetected < rep.DivergencesInjected {
		t.Errorf("only %d of %d injected divergences were detected",
			rep.DivergencesDetected, rep.DivergencesInjected)
	}
	if rep.PrimaryCrashes == 0 {
		t.Error("no primary crash landed")
	}
	if rep.FollowerCrashes == 0 {
		t.Error("no follower crash landed")
	}
	if rep.StaleAudits != cfg.Rounds {
		t.Errorf("%d staleness audits ran, want one per round (%d)", rep.StaleAudits, cfg.Rounds)
	}
	if rep.ServedReads == 0 {
		t.Error("no replica read succeeded during the storms")
	}
	if rep.Digest == "" {
		t.Error("no settled-catalog digest produced")
	}
	for id, d := range rep.FollowerDigests {
		if d != rep.Digest {
			t.Errorf("follower %s settled at digest %.12s, primary %.12s", id, d, rep.Digest)
		}
	}
	t.Logf("replication soak: %d rounds, %d acked, %d frames shipped, %d resyncs, %d link drops, "+
		"%d served / %d stale reads, %d/%d divergences detected, %d primary + %d follower crashes, "+
		"%d catch-ups, final v%d digest %.12s",
		rep.Rounds, rep.MutationsAcked, rep.FramesShipped, rep.Resyncs, rep.LinkDrops,
		rep.ServedReads, rep.StaleReads, rep.DivergencesDetected, rep.DivergencesInjected,
		rep.PrimaryCrashes, rep.FollowerCrashes, rep.CatchUps, rep.FinalVersion, rep.Digest)

	// CI archives the settled digests so a replication regression is
	// diffable across runs (REPL_DIGEST names the artifact file).
	if path := os.Getenv("REPL_DIGEST"); path != "" {
		var sb strings.Builder
		fmt.Fprintf(&sb, "seed=%d rounds=%d final_version=%d primary=%s\n",
			cfg.Seed, rep.Rounds, rep.FinalVersion, rep.Digest)
		ids := make([]string, 0, len(rep.FollowerDigests))
		for id := range rep.FollowerDigests {
			ids = append(ids, id)
		}
		sort.Strings(ids) // map order would make same-seed artifacts differ
		for _, id := range ids {
			fmt.Fprintf(&sb, "replica=%s sha256=%s\n", id, rep.FollowerDigests[id])
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Errorf("writing REPL_DIGEST: %v", err)
		}
	}
	checkLeaks()
}

// TestReplicationDeterministic pins that the soak is replayable: two runs
// from the same seed settle the primary and every follower at identical
// catalog digests and versions — the property the CI replication-smoke
// job archives.
func TestReplicationDeterministic(t *testing.T) {
	run := func() *chaos.ReplicationReport {
		primary, reps := replicationDirs(t, 2)
		rep, err := chaos.RunReplication(chaos.ReplicationConfig{
			Seed:              7,
			PrimaryDir:        primary,
			ReplicaDirs:       reps,
			Rounds:            9,
			MutationsPerRound: 10,
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
	if a.MutationsAcked != b.MutationsAcked {
		t.Errorf("same-seed acked counts differ: %d vs %d", a.MutationsAcked, b.MutationsAcked)
	}
}
