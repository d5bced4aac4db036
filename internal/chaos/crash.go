package chaos

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	els "repro"
	"repro/internal/durable"
	"repro/internal/faultinject"
)

// CrashConfig shapes one crash-recovery soak: a mutator fleet hammers a
// durable system while a faulter arms simulated process kills at the
// durable layer's probe points; every "crash" is followed by a recovery
// (els.Open on the same directory) whose result is audited against the
// acknowledge contract. The zero value (plus a Dir) is usable.
type CrashConfig struct {
	// Seed drives every random decision.
	Seed int64
	// Dir is the durable catalog directory the soak crashes and recovers.
	// Required.
	Dir string
	// Rounds is the number of crash/recover (or clean-shutdown/recover)
	// cycles (default 15).
	Rounds int
	// MutationsPerMutator bounds each mutator's work per round (default 25);
	// a round that exhausts its mutations without hitting an injected crash
	// shuts down cleanly, which soaks the clean-recovery path too.
	MutationsPerMutator int
	// Mutators is the size of the mutator fleet; each owns one table
	// (default 3).
	Mutators int
	// Deterministic trades concurrency for exact replayability: a single
	// mutator arms each round's crash itself before a seed-chosen mutation
	// (instead of a timer racing a fleet), no concurrent readers or
	// checkpointer run, and two soaks from the same seed therefore recover
	// byte-identical catalogs — the property the CI digest artifact pins.
	// The default (false) is the concurrent storm, deterministic only
	// modulo goroutine scheduling.
	Deterministic bool
	// LogW, if non-nil, receives one JSON line per event — the artifact a
	// CI crash-smoke run uploads for post-mortem debugging.
	LogW io.Writer
}

// CrashReport is the audited outcome of a crash soak.
type CrashReport struct {
	Verdict
	// Rounds is the number of open→storm→shutdown cycles completed.
	Rounds int
	// Crashes counts rounds that ended in an injected durability crash;
	// CleanShutdowns counts the rest.
	Crashes, CleanShutdowns int
	// TornTails counts recoveries that truncated a torn trailing WAL record.
	TornTails int
	// MutationsAcked is the total number of acknowledged catalog mutations
	// across all rounds. Acknowledged mutations never vanish; the audit
	// fails the soak if one does.
	MutationsAcked int
	// RecoveredAhead counts recoveries that landed one version ahead of the
	// last acknowledgement: the killed mutation's record reached the disk
	// intact, so recovery kept it even though no caller was ever told it
	// succeeded. That is the one divergence the contract allows.
	RecoveredAhead int
	// BitIdenticalChecks counts recovered estimates compared bit-for-bit
	// against their pre-crash values at the same catalog version.
	BitIdenticalChecks int
	// FinalVersion is the catalog version after the last recovery, and
	// Digest is the recovered catalog's System.CatalogDigest — the artifact
	// CI archives to prove two runs of the same seed recovered identical
	// catalogs.
	FinalVersion uint64
	Digest       string
}

// crashPoints are the durable layer's probe points, each one instant a
// real process can die at: mid-WAL-record, pre-fsync, mid-checkpoint-write,
// pre-rename, and post-rename-pre-truncate.
var crashPoints = []string{
	durable.PointWALAppend,
	durable.PointWALSync,
	durable.PointCheckpointWrite,
	durable.PointCheckpointRename,
	durable.PointWALTruncate,
}

// crashState is what the harness observes on the frozen (or cleanly
// stopped) system just before it is closed — the ground truth the next
// recovery is audited against.
type crashState struct {
	version  uint64             // last published (acknowledged) version
	cards    map[string]float64 // acknowledged card per mutator table
	maxTried map[string]float64 // highest card ever attempted per table
	probes   map[string]uint64  // probe SQL -> Float64bits of the estimate at version
	poisoned bool               // whether an injected crash landed
}

// crashHarness carries one soak's state across rounds; the kernel's mu
// guards maxTried and report.
type crashHarness struct {
	*kernel
	cfg      CrashConfig
	maxTried map[string]float64 // persists across rounds
	report   CrashReport
}

// RunCrash executes one crash-recovery soak. The returned error reports a
// harness malfunction; contract breaches land in CrashReport.Violations.
func RunCrash(cfg CrashConfig) (*CrashReport, error) {
	if cfg.Dir == "" {
		return nil, errors.New("chaos: CrashConfig.Dir is required")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 15
	}
	if cfg.MutationsPerMutator <= 0 {
		cfg.MutationsPerMutator = 25
	}
	if cfg.Mutators <= 0 {
		cfg.Mutators = 3
	}
	if cfg.Deterministic {
		cfg.Mutators = 1
	}
	h := &crashHarness{kernel: newKernel("crash", cfg.Seed, cfg.LogW, nil), cfg: cfg, maxTried: make(map[string]float64)}

	var prev *crashState
	rng := rand.New(rand.NewSource(cfg.Seed))
	for round := 0; round < cfg.Rounds; round++ {
		state := h.round(round, rng.Int63(), prev)
		if state == nil { // recovery violation already recorded; cannot continue
			break
		}
		prev = state
		h.report.Rounds++
	}
	faultinject.Reset()

	// Final audit: one last recovery of the directory, digested.
	if sys, err := els.Open(cfg.Dir); err != nil {
		h.violation("final recovery failed: %v", err)
	} else {
		h.report.FinalVersion, h.report.Digest, _ = h.digest("final recovered catalog", sys)
		drain(sys)
	}

	out := h.report
	out.Verdict = h.verdict()
	return &out, nil
}

// bump claims the next card in table's strictly increasing sequence.
func (h *crashHarness) bump(table string) (card float64) {
	h.mu.Lock()
	card = h.maxTried[table] + 1
	h.maxTried[table] = card
	h.mu.Unlock()
	return card
}

// round opens the directory (auditing recovery against prev), runs one
// mutator storm until an injected crash lands or the mutation budget runs
// out, captures the pre-shutdown state, and closes. A nil state means the
// soak cannot continue.
func (h *crashHarness) round(round int, seed int64, prev *crashState) *crashState {
	sys, err := els.Open(h.cfg.Dir)
	if err != nil {
		h.violation("round %d: recovery failed: %v", round, err)
		return nil
	}
	defer drain(sys)
	h.auditRecovery(round, sys, prev)

	// Seed any mutator table recovery did not bring back (only the first
	// round on a fresh directory), so the readers' probes always bind.
	for m := 0; m < h.cfg.Mutators; m++ {
		table := fmt.Sprintf("m%d", m)
		if _, err := sys.TableCard(table); err == nil {
			continue
		}
		if err := sys.DeclareStats(table, h.bump(table), map[string]float64{"x": 10}); err != nil {
			h.violation("round %d: seeding %s failed: %v", round, table, err)
			return nil
		}
		h.mu.Lock()
		h.report.MutationsAcked++
		h.mu.Unlock()
	}

	rng := rand.New(rand.NewSource(seed))
	// Vary the compaction pressure: some rounds auto-checkpoint aggressively,
	// some never, so crashes land on long and short WAL suffixes alike.
	sys.SetLimits(els.Limits{CheckpointEvery: []int{0, 2, 5}[rng.Intn(3)]})

	crashed := make(chan struct{})
	var crashOnce sync.Once
	noteCrash := func() { crashOnce.Do(func() { close(crashed) }) }
	label := fmt.Sprintf("round %d", round)
	background, readers, mutators := h.fleet(label), h.fleet(label), h.fleet(label)
	background.onFail, readers.onFail, mutators.onFail = noteCrash, noteCrash, noteCrash

	// Each round injects at most one simulated kill, at a random durable
	// probe point. ShortWrite -1 means the faulted write completes before
	// the kill. In the concurrent storm a faulter goroutine arms it after a
	// random delay; in deterministic mode the single mutator arms it itself
	// right before a seed-chosen mutation.
	point := crashPoints[rng.Intn(len(crashPoints))]
	short := rng.Intn(60) - 10
	delay := time.Duration(rng.Intn(8)) * time.Millisecond
	detCrashAt := rng.Intn(h.cfg.MutationsPerMutator)
	arm := func() {
		faultinject.Enable(point, faultinject.Fault{
			Times:   1,
			Payload: faultinject.DiskFault{ShortWrite: short},
		})
		h.event("arm", "round", round, "point", point, "short", short)
	}

	readerStop := make(chan struct{})
	if !h.cfg.Deterministic {
		background.Go(func() {
			pause(crashed, delay)
			select {
			case <-crashed:
			default:
				arm()
			}
		})

		// A checkpointer exercises explicit compaction so the checkpoint
		// crash points are reachable even in CheckpointEvery=0 rounds.
		background.Go(func() {
			r := rand.New(rand.NewSource(seed + 1))
			for {
				pause(crashed, time.Duration(r.Intn(6)+2)*time.Millisecond)
				select {
				case <-crashed:
					return
				default:
				}
				if err := sys.Checkpoint(); err != nil {
					if !errors.Is(err, els.ErrDurability) {
						h.violation("round %d: checkpoint error outside taxonomy: %v", round, err)
					}
					noteCrash()
					return
				}
			}
		})

		// Readers estimate continuously; reads must keep working through
		// mutation traffic and even on a frozen (post-crash) catalog.
		probes := h.probeSQL()
		for r := 0; r < 2; r++ {
			readers.Go(func() {
				rg := rand.New(rand.NewSource(seed + 100 + int64(r)))
				for {
					select {
					case <-readerStop:
						return
					default:
					}
					if _, err := sys.Estimate(probes[rg.Intn(len(probes))], els.AlgorithmELS); err != nil {
						h.violation("round %d: read failed mid-storm: %v", round, err)
						return
					}
				}
			})
		}
	}

	// The mutator fleet: each mutator owns one table and republishes it
	// with a strictly increasing cardinality — the monotonic sequence the
	// recovery audit leans on.
	for m := 0; m < h.cfg.Mutators; m++ {
		mutators.Go(func() {
			table := fmt.Sprintf("m%d", m)
			r := rand.New(rand.NewSource(seed + 200 + int64(m)))
			for i := 0; i < h.cfg.MutationsPerMutator; i++ {
				select {
				case <-crashed:
					return
				default:
				}
				if h.cfg.Deterministic && i == detCrashAt {
					arm()
				}
				card := h.bump(table)
				err := sys.DeclareStats(table, card, map[string]float64{"x": 10})
				switch {
				case err == nil:
					h.mu.Lock()
					h.report.MutationsAcked++
					h.mu.Unlock()
				case errors.Is(err, els.ErrDurability):
					h.event("crash", "round", round, "table", table, "card", card)
					noteCrash()
					return
				default:
					h.violation("round %d: mutation error outside taxonomy: %v", round, err)
					noteCrash()
					return
				}
				if !h.cfg.Deterministic && r.Intn(4) == 0 {
					pause(crashed, time.Millisecond)
				}
			}
		})
	}
	mutators.Wait()
	noteCrash() // budget exhausted counts as the end of the round
	background.Wait()
	close(readerStop)
	readers.Wait()
	faultinject.Reset() // disarm a fault that never fired

	state := h.capture(round, sys)
	h.mu.Lock()
	if state.poisoned {
		h.report.Crashes++
	} else {
		h.report.CleanShutdowns++
	}
	h.mu.Unlock()
	return state
}

// probeSQL returns the estimate probes replayed after recovery for the
// bit-identity audit. They depend on every mutator table's statistics.
func (h *crashHarness) probeSQL() []string {
	probes := make([]string, 0, h.cfg.Mutators+1)
	for m := 0; m < h.cfg.Mutators; m++ {
		probes = append(probes, fmt.Sprintf("SELECT COUNT(*) FROM m%d WHERE x < 5", m))
	}
	if h.cfg.Mutators >= 2 {
		probes = append(probes, "SELECT COUNT(*) FROM m0, m1 WHERE m0.x = m1.x")
	}
	return probes
}

// capture records the frozen system's ground truth: the last published
// version, every table's acknowledged card, and the probe estimates that
// recovery must reproduce bit-for-bit at the same version. Reads keep
// working after a durability freeze, which is itself part of the contract.
func (h *crashHarness) capture(round int, sys *els.System) *crashState {
	st := &crashState{
		version:  sys.CatalogVersion(),
		cards:    make(map[string]float64),
		maxTried: make(map[string]float64),
		probes:   make(map[string]uint64),
		poisoned: sys.DurabilityStats().Poisoned != nil,
	}
	for m := 0; m < h.cfg.Mutators; m++ {
		table := fmt.Sprintf("m%d", m)
		if card, err := sys.TableCard(table); err == nil {
			st.cards[table] = card
		}
	}
	h.mu.Lock()
	for t, v := range h.maxTried {
		st.maxTried[t] = v
	}
	h.mu.Unlock()
	for _, sql := range h.probeSQL() {
		est, err := sys.Estimate(sql, els.AlgorithmELS)
		if err != nil {
			h.violation("round %d: pre-shutdown probe failed: %v", round, err)
			continue
		}
		if est.CatalogVersion != st.version {
			h.violation("round %d: pre-shutdown probe pinned version %d, catalog is at %d",
				round, est.CatalogVersion, st.version)
			continue
		}
		st.probes[sql] = math.Float64bits(est.FinalSize)
	}
	h.event("shutdown", "round", round, "version", st.version, "poisoned", st.poisoned)
	return st
}

// auditRecovery checks a freshly recovered system against the state
// captured before the previous shutdown:
//
//   - the recovered version R is the last acknowledged version V, or V+1
//     when exactly the one in-flight record reached the disk intact before
//     the kill (publication is what acknowledges, but durability is what
//     survives) — never anything else, never partial;
//   - acknowledged cards never regress, and at most the single in-flight
//     table may differ from its acknowledged value, by exactly its one
//     attempted mutation;
//   - at R == V, every probe estimate is bit-identical to its pre-crash
//     value.
func (h *crashHarness) auditRecovery(round int, sys *els.System, prev *crashState) {
	if sys.DurabilityStats().TornTailRecovered {
		h.mu.Lock()
		h.report.TornTails++
		h.mu.Unlock()
	}
	if prev == nil {
		return
	}
	rv := sys.CatalogVersion()
	maxV := prev.version
	if prev.poisoned {
		maxV++ // the in-flight record may have survived
	}
	if rv < prev.version || rv > maxV {
		h.violation("round %d: recovered version %d outside [%d, %d]", round, rv, prev.version, maxV)
		return
	}
	h.event("recovered", "round", round, "version", rv, "ahead", rv-prev.version)

	diffs := 0
	for table, acked := range prev.cards {
		got, err := sys.TableCard(table)
		if err != nil {
			h.violation("round %d: acknowledged table %s vanished in recovery: %v", round, table, err)
			continue
		}
		if got == acked {
			continue
		}
		diffs++
		if got < acked {
			h.violation("round %d: table %s regressed below its acknowledged card: %g < %g",
				round, table, got, acked)
		} else if got > prev.maxTried[table] {
			h.violation("round %d: table %s recovered card %g was never even attempted (max tried %g)",
				round, table, got, prev.maxTried[table])
		}
	}
	if diffs > 1 {
		h.violation("round %d: %d tables diverged from their acknowledged stats; at most one mutation can be in flight",
			round, diffs)
	}
	if rv == prev.version && diffs > 0 {
		h.violation("round %d: recovered the acknowledged version %d but %d tables differ", round, rv, diffs)
	}
	if rv > prev.version {
		h.mu.Lock()
		h.report.RecoveredAhead++
		h.mu.Unlock()
		return
	}
	for sql, wantBits := range prev.probes {
		est, err := sys.Estimate(sql, els.AlgorithmELS)
		if err != nil {
			h.violation("round %d: post-recovery probe failed: %v", round, err)
			continue
		}
		h.mu.Lock()
		h.report.BitIdenticalChecks++
		h.mu.Unlock()
		if got := math.Float64bits(est.FinalSize); got != wantBits {
			h.violation("round %d: estimate %q not bit-identical after recovery: %x != %x (version %d)",
				round, sql, got, wantBits, rv)
		}
	}
}
