// Package chaos is the soak harness for the serving layer. Every storm is
// a scenario declared on one small kernel (kernel.go) that owns the
// scaffolding they share: the JSONL event log (each line stamped with the
// scenario and seed), the violation recorder, the error classifier, the
// panic-safe goroutine fleet, the stop-aware pause, wire dial/redial, the
// published-version ledger behind the torn-read audits, and the
// end-of-run audits for admission slots, leaked spill files, and catalog
// digests. The scenarios:
//
//   - Run: worker fleets query concurrently while a mutator republishes
//     the catalog and a faulter arms errors, panics, and latency;
//   - RunCacheSoak: the same storm aimed at the plan cache, without faults;
//   - RunCrash: simulated process kills at the durable layer's probe
//     points, each followed by an audited recovery;
//   - RunReplication: WAL shipping to a replica fleet under link, disk,
//     and divergence faults;
//   - RunServer: a multi-tenant wire server under client swarms,
//     saboteurs, overload, quarantine, and a drain/restart;
//   - RunMemoryPressure: an under-budgeted hog tenant beside healthy
//     neighbors on one memory pool.
//
// Everything is seeded, so a failing storm replays deterministically
// (modulo goroutine scheduling) from its seed.
package chaos

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	els "repro"
	"repro/internal/cardest"
	"repro/internal/executor"
	"repro/internal/faultinject"
)

// Config shapes one chaos storm. The zero value is usable: Run fills in
// defaults sized for a CI smoke run.
type Config struct {
	// Seed drives every random decision in the storm.
	Seed int64
	// Workers is the number of concurrent query-issuing goroutines
	// (default 8).
	Workers int
	// OpsPerWorker is how many operations each worker issues (default 50).
	OpsPerWorker int
	// MaxConcurrent, MaxQueue, and QueueTimeout configure admission
	// control for the storm (defaults 4, 8, 50ms). MaxConcurrent < Workers
	// keeps the admission queue contended.
	MaxConcurrent, MaxQueue int
	QueueTimeout            time.Duration
	// Retry, if enabled, is installed on the system so the storm exercises
	// the retry loop against injected faults.
	Retry els.RetryPolicy
	// Breaker, if non-zero, is installed on the system so the storm
	// exercises breaker trips and half-open probes.
	Breaker els.BreakerPolicy
	// LogW, if non-nil, receives one JSON line per event (operations,
	// faults armed, catalog mutations, violations) — the artifact to attach
	// to a CI run for post-mortem debugging.
	LogW io.Writer
}

// Report is the audited outcome of a storm.
type Report struct {
	Verdict
	// Ops is the total number of operations issued; Succeeded counts the
	// ones that returned no error.
	Ops, Succeeded int
	// ErrorsByClass histograms failures by taxonomy sentinel name.
	ErrorsByClass map[string]int
	// VersionsPublished is how many catalog versions the mutator published.
	VersionsPublished int
	// Observations counts version-consistency data points collected (each
	// one an estimate checked against the catalog version it claims).
	Observations int
	// Stats is the system's serving-layer counters after Close.
	Stats els.RobustnessStats
	// Cache is the plan-cache counters after Close. The torn-read audit
	// doubles as the cache's version-pinning contract: a hit that served a
	// plan or estimate from any version other than the estimate's pinned
	// CatalogVersion would surface as a torn read.
	Cache els.CacheStats
}

// versionProbeSQL estimates the mutating table with no predicates, so the
// estimate must equal the cardinality published for the pinned version.
const versionProbeSQL = "SELECT COUNT(*) FROM V"

var stormSQL = []string{
	"SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5",
	"SELECT COUNT(*) FROM R WHERE R.b = 3",
	"SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND S.c = 2",
}

// harness is an in-process storm (Run and RunCacheSoak) on one System.
type harness struct {
	*kernel
	cfg Config
	sys *els.System
}

// Run executes one storm and audits it:
//
//   - every error belongs to the public taxonomy (no raw internal errors
//     escape),
//   - every estimate is consistent with exactly one published catalog
//     version (no torn reads across a concurrent statistics refresh),
//   - Close drains to zero in-flight queries with no admission-slot
//     accounting drift.
//
// The returned error reports a harness malfunction (e.g. seed data failed
// to load); contract breaches are reported in Report.Violations, not as an
// error.
func Run(cfg Config) (*Report, error) {
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 50
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 8
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 50 * time.Millisecond
	}
	h, err := newHarness("soak", cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Retry.Enabled() {
		h.sys.SetRetryPolicy(cfg.Retry)
	}
	if cfg.Breaker != (els.BreakerPolicy{}) {
		h.sys.SetBreaker(cfg.Breaker)
	}

	stop := make(chan struct{})
	background := h.fleet("chaos: background")
	background.Go(func() { h.mutator(stop) })
	background.Go(func() { h.faulter(stop) })
	workers := h.fleet("chaos: worker")
	for w := 0; w < h.cfg.Workers; w++ {
		workers.Go(func() { h.worker(w) })
	}
	workers.Wait()
	close(stop)
	background.Wait()
	faultinject.Reset()

	return h.audit(), nil
}

// newHarness applies the defaults Run and RunCacheSoak share, loads the
// static tables the storm queries, publishes the first version of the
// mutating table V, and installs the admission limits.
func newHarness(scenario string, cfg Config) (*harness, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	h := &harness{kernel: newKernel(scenario, cfg.Seed, cfg.LogW, inProcessSet), cfg: cfg, sys: els.New()}
	if err := h.sys.LoadTable("R", []string{"a", "b"}, rows(200, 10)); err != nil {
		return nil, fmt.Errorf("chaos: seeding R: %w", err)
	}
	if err := h.sys.LoadTable("S", []string{"a", "c"}, rows(300, 10)); err != nil {
		return nil, fmt.Errorf("chaos: seeding S: %w", err)
	}
	if err := h.sys.DeclareStats("V", 1000, map[string]float64{"x": 10}); err != nil {
		return nil, fmt.Errorf("chaos: seeding V: %w", err)
	}
	h.publish("", h.sys.CatalogVersion(), 1000)
	h.sys.SetLimits(els.Limits{
		MaxConcurrent: cfg.MaxConcurrent,
		MaxQueue:      cfg.MaxQueue,
		QueueTimeout:  cfg.QueueTimeout,
		Workers:       2,
	})
	return h, nil
}

// mutator republishes V's statistics with a version-correlated cardinality
// until told to stop. It is the only mutator, so reading the catalog
// version right after a successful publish identifies the version that
// publish created.
func (h *harness) mutator(stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 1))
	for i := 1; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		card := float64(1000 + i)
		if err := h.sys.DeclareStats("V", card, map[string]float64{"x": 10}); err != nil {
			h.violation("mutator: DeclareStats failed mid-storm: %v", err)
			return
		}
		h.publish("", h.sys.CatalogVersion(), card)
		pause(stop, time.Duration(rng.Intn(3)+1)*time.Millisecond)
	}
}

// faulter keeps arming random probe points with random faults: taxonomy
// errors, panics, and latency. Fault errors always wrap ErrInternal so the
// taxonomy audit can tell injected failures from leaks.
func (h *harness) faulter(stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 2))
	points := []string{
		cardest.PointNewQuery,
		executor.PointScan,
		executor.PointJoin,
		executor.PointScanChunk,
		executor.PointJoinChunk,
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		point := points[rng.Intn(len(points))]
		f := faultinject.Fault{Times: rng.Intn(3) + 1}
		kind := ""
		switch rng.Intn(3) {
		case 0:
			kind = "error"
			f.Err = fmt.Errorf("%w: chaos: injected fault", els.ErrInternal)
		case 1:
			kind = "panic"
			f.PanicValue = "chaos: injected panic"
		case 2:
			kind = "latency"
			f.Delay = time.Duration(rng.Intn(2)+1) * time.Millisecond
		}
		faultinject.Enable(point, f)
		h.event("fault", "point", point, "kind", kind, "times", f.Times)
		pause(stop, time.Duration(rng.Intn(4)+1)*time.Millisecond)
	}
}

// worker issues OpsPerWorker random operations against the system,
// classifying every outcome.
func (h *harness) worker(id int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 100 + int64(id)))
	for i := 0; i < h.cfg.OpsPerWorker; i++ {
		op := rng.Intn(5)
		var err error
		var opName string
		switch op {
		case 0:
			opName = "estimate-v"
			var est *els.Estimate
			est, err = h.sys.Estimate(versionProbeSQL, els.AlgorithmELS)
			if err == nil {
				h.observe("", est.CatalogVersion, est.FinalSize)
			}
		case 1:
			opName = "query"
			_, err = h.sys.Query(stormSQL[rng.Intn(len(stormSQL))], els.AlgorithmELS)
		case 2:
			opName = "explain"
			_, err = h.sys.Explain(stormSQL[rng.Intn(len(stormSQL))], els.AlgorithmELS)
		case 3:
			opName = "estimate"
			_, err = h.sys.Estimate(stormSQL[rng.Intn(len(stormSQL))], els.AlgorithmSM)
		case 4:
			opName = "query-deadline"
			//ctxflow:allow the storm deliberately issues root-context deadline ops
			ctx, cancel := context.WithTimeout(context.Background(),
				time.Duration(rng.Intn(10)+1)*time.Millisecond)
			_, err = h.sys.QueryContext(ctx, stormSQL[rng.Intn(len(stormSQL))], els.AlgorithmELS)
			cancel()
		}
		h.record(fmt.Sprintf("worker %d", id), opName, err)
	}
}

// audit drains the system, checks the end-of-storm contracts, and builds
// the report.
func (h *harness) audit() *Report {
	if err := drain(h.sys); err != nil {
		h.violation("Close did not drain cleanly: %v", err)
	}
	st := h.sys.RobustnessStats()
	h.auditSlots("the system", st.InFlight, st.Waiting)
	h.auditTornReads(true, nil)

	rep := &Report{Verdict: h.verdict(), Stats: st, Cache: h.sys.CacheStats()}
	rep.VersionsPublished, rep.Observations = h.ledger()
	h.mu.Lock()
	rep.Ops, rep.Succeeded, rep.ErrorsByClass = h.ops, h.succeeded, h.errsByClass
	h.mu.Unlock()
	return rep
}
