package main

import (
	"context"
	"strings"
	"sync"
	"time"

	els "repro"
	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/closure"
	"repro/internal/eqclass"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/sqlparse"
)

// layers accumulates a traced phase's per-layer measurements. Every
// workload reports the same per-layer metrics (see report), so a layer a
// workload never reaches reports what it did there: no bytes, no tuples,
// no share of the time.
//
// The estimator layers (sqlparse, plancache, closure, eqclass, cardest,
// optimizer) are timed on every traced operation's query against a mirror
// catalog holding the system's statistics, whether the system served the
// operation from its plan cache or not: their metrics are each layer's
// cost on the workload's queries, and plancache.hit_ratio says how often
// the system pays the costly ones. The executor and governor figures are
// the system's own, from each executed query's result.
//
// A layers is safe for concurrent use: mu guards every field below it.
type layers struct {
	tr     *tracer
	mirror *catalog.Catalog

	mu         sync.Mutex
	ops        int64         // traced operations
	paid       time.Duration // layer time the operations themselves paid
	mismatches int64

	implied, classes, plans []float64

	exec, codec                               time.Duration
	tuples, comparisons, spills, spilledBytes int64
	peakBytes                                 int64
	reqBytes, respBytes                       int64
}

// newLayers starts a traced phase on a mirror of sys's statistics.
func newLayers(sys *els.System) (*layers, error) {
	var buf strings.Builder
	if err := sys.ExportStats(&buf); err != nil {
		return nil, err
	}
	mirror := catalog.New()
	if err := mirror.ImportJSON(strings.NewReader(buf.String())); err != nil {
		return nil, err
	}
	return &layers{tr: newTracer(), mirror: mirror}, nil
}

// planCost is how long each estimator layer took on one query.
type planCost struct{ parse, canon, cardest, optimize time.Duration }

// estimation is what the system pays on a plan-cache miss; a hit pays
// only parse and canonicalization. closure and eqclass run inside
// cardest.NewQuery and are not added again.
func (c planCost) estimation() time.Duration { return c.cardest + c.optimize }

// spanned runs fn in a span named name under root and returns its duration.
func (l *layers) spanned(name string, root int, fn func()) time.Duration {
	id := l.tr.start(name, root)
	fn()
	return l.tr.end(id)
}

// plan runs every estimator layer on sql against the mirror, each in its
// own span under root, with the options the system's planner uses under
// limits. It counts a mismatch when the mirror's final estimate differs
// from want, the estimate the system returned.
func (l *layers) plan(ctx context.Context, root int, sql string, cfg cardest.Config, limits governor.Limits, want float64) (planCost, error) {
	var c planCost
	var q *sqlparse.Query
	var err error
	c.parse = l.spanned("sqlparse.ParseAndBind", root, func() { q, err = sqlparse.ParseAndBind(sql, l.mirror) })
	if err != nil {
		return c, err
	}
	c.canon = l.spanned("plancache.Canonical", root, func() { plancache.Canonical(q) })
	var cl closure.Result
	l.spanned("closure.Compute", root, func() { cl = closure.Compute(q.Where) })
	var classes *eqclass.Classes
	l.spanned("eqclass.FromPredicates", root, func() { classes = eqclass.FromPredicates(q.Where) })

	tabs := make([]cardest.TableRef, len(q.Tables))
	for i, item := range q.Tables {
		tabs[i] = cardest.TableRef{Alias: item.Alias, Table: item.Table}
	}
	var est *cardest.Estimator
	c.cardest = l.spanned("cardest.NewQuery", root, func() {
		est, err = cardest.NewQuery(l.mirror, tabs, q.Where, q.Disjunctions, cfg)
	})
	if err != nil {
		return c, err
	}
	gov := governor.New(ctx, limits)
	opts := optimizer.PaperOptions()
	if gov.MemoryEnforced() {
		opts.Methods = []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.HashJoin}
	}
	opts.Governor = gov
	var plan optimizer.Plan
	c.optimize = l.spanned("optimizer.BestPlan", root, func() {
		var opt *optimizer.Optimizer
		if opt, err = optimizer.New(est, opts); err == nil {
			plan, err = opt.BestPlan()
		}
	})
	if err != nil {
		return c, err
	}
	_, _, plans := gov.Usage()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.implied = append(l.implied, float64(len(cl.Implied)))
	l.classes = append(l.classes, float64(classes.NumClasses()))
	l.plans = append(l.plans, float64(plans))
	if plan.EstRows() != want {
		l.mismatches++
	}
	return c, nil
}

// op counts one traced operation and the layer time it paid.
func (l *layers) op(paid time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	l.paid += paid
}

// executed adds one executed query's executor and governor figures.
func (l *layers) executed(res *els.Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.exec += res.Elapsed
	l.tuples += res.TuplesScanned
	l.comparisons += res.Comparisons
	l.spills += res.SpillCount
	l.spilledBytes += res.SpilledBytes
	l.peakBytes = max(l.peakBytes, res.PeakMemoryBytes)
}

// phaseTime is what the trace ratios need of a phase.
type phaseTime struct {
	ops           int64
	busy, elapsed time.Duration
}

func (p phaseTime) meanLatency() time.Duration { return p.busy / time.Duration(max(p.ops, 1)) }
func (p phaseTime) throughput() float64        { return float64(p.ops) / p.elapsed.Seconds() }

// systemCounters are the counters a traced phase reports as deltas.
type systemCounters struct {
	cache els.CacheStats
	rob   els.RobustnessStats
	dur   els.DurabilityStats
}

func countersOf(sys *els.System) systemCounters {
	return systemCounters{sys.CacheStats(), sys.RobustnessStats(), sys.DurabilityStats()}
}

// plus sums the counters report reads, for a workload served by two
// systems.
func (c systemCounters) plus(o systemCounters) systemCounters {
	c.cache.Hits += o.cache.Hits
	c.cache.Misses += o.cache.Misses
	c.cache.Invalidations += o.cache.Invalidations
	c.rob.QueueWait += o.rob.QueueWait
	c.rob.ShedQueueFull += o.rob.ShedQueueFull
	c.rob.ShedQueueTimeout += o.rob.ShedQueueTimeout
	c.dur.WALBytes += o.dur.WALBytes
	return c
}

// report sets every per-layer metric. untraced and traced are the two
// phases of the run; before and after are the serving system's counters
// around the traced phase. A share is time per traced operation over the
// untraced operation latency.
func (l *layers) report(r *report, untraced, traced phaseTime, before, after systemCounters) {
	ops := float64(max(l.ops, 1))
	share := func(d time.Duration) float64 {
		return float64(d) / ops / float64(untraced.meanLatency())
	}
	r.set("sqlparse.parse_bind_p50_us", l.tr.p("sqlparse.ParseAndBind", 0.5), "us")
	r.set("plancache.canonical_p50_us", l.tr.p("plancache.Canonical", 0.5), "us")
	hits, misses := after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses
	r.set("plancache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	r.set("plancache.lookups", float64(hits+misses), "count")
	r.set("plancache.invalidations", float64(after.cache.Invalidations-before.cache.Invalidations), "count")
	r.set("closure.compute_p50_us", l.tr.p("closure.Compute", 0.5), "us")
	r.set("closure.implied_per_query", mean(l.implied), "count")
	r.set("eqclass.build_p50_us", l.tr.p("eqclass.FromPredicates", 0.5), "us")
	r.set("eqclass.classes_per_query", mean(l.classes), "count")
	r.set("cardest.new_query_p50_us", l.tr.p("cardest.NewQuery", 0.5), "us")
	r.set("optimizer.best_plan_p50_us", l.tr.p("optimizer.BestPlan", 0.5), "us")
	r.set("optimizer.best_plan_p99_us", l.tr.p("optimizer.BestPlan", 0.99), "us")
	r.set("optimizer.plans_per_query", mean(l.plans), "count")
	r.set("executor.time_share", share(l.exec), "ratio")
	r.set("executor.tuples_per_op", float64(l.tuples)/ops, "count")
	r.set("executor.comparisons_per_op", float64(l.comparisons)/ops, "count")
	r.set("governor.peak_bytes", float64(l.peakBytes), "B")
	r.set("governor.spills_per_op", float64(l.spills)/ops, "count")
	r.set("governor.spilled_bytes_per_op", float64(l.spilledBytes)/ops, "B")
	r.set("durable.wal_bytes_per_op", float64(after.dur.WALBytes-before.dur.WALBytes)/ops, "B")
	r.set("wire.request_bytes_per_op", float64(l.reqBytes)/ops, "B")
	r.set("wire.response_bytes_per_op", float64(l.respBytes)/ops, "B")
	r.set("wire.codec_share", share(l.codec), "ratio")
	r.set("admission.wait_share", share(after.rob.QueueWait-before.rob.QueueWait), "ratio")
	sheds := (after.rob.ShedQueueFull + after.rob.ShedQueueTimeout) - (before.rob.ShedQueueFull + before.rob.ShedQueueTimeout)
	r.set("admission.shed_ratio", float64(sheds)/ops, "ratio")
	r.set("trace.covered_ratio", share(l.paid), "ratio")
	r.set("trace.overhead_ratio", traced.throughput()/untraced.throughput(), "ratio")
	r.set("trace.mirror_mismatches", float64(l.mismatches), "count")
}
