package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	els "repro"
	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/governor"
	"repro/internal/plancache"
)

// plan_mix: one in-process client, closed loop, on a durable system opened
// with els.Open at the default flush policy (an fsync per WAL record, no
// automatic checkpoints). The client sends ELS estimates of chain and star
// joins of 2–8 declared tables, drawn on a Zipf schedule from a pool four
// times the plan cache's default capacity, so the working set does not fit
// the cache. Every pmWriteEvery-th operation is a DeclareStats write, which
// publishes a new catalog version and so retires every cached plan.
//
// The estimator layers do all the work here and the executor none. An
// operation is one estimate or write; the end-to-end latencies are over
// all of them. An estimate is a hit or a miss by the cache's hit counter
// around the call; every hit must return what the miss that filled it
// returned at the same catalog version.
const (
	pmTables     = 40
	pmColumns    = 4
	pmPool       = 4 * plancache.DefaultCapacity
	pmMinWidth   = 2
	pmMaxWidth   = 8
	pmWidths     = pmMaxWidth - pmMinWidth + 1
	pmWriteEvery = 50
	pmZipfS      = 1.1
	pmWarmOps    = 1000
)

type pmTable struct {
	name     string
	card     float64
	distinct map[string]float64
}

type pmQuery struct{ sql string }

// pmFill is what the miss that filled a cache entry returned.
type pmFill struct {
	version uint64
	size    float64
	order   string
}

type planMix struct {
	cfg    *config
	tables []pmTable
	pool   []pmQuery

	// The operation stream: rng draws write targets, zipf draws pool ranks.
	rng  *rand.Rand
	zipf *rand.Zipf
	op   int64

	dir   string
	sys   *els.System
	fills map[string]pmFill
}

// pmPhase is one timed phase's outcome.
type pmPhase struct {
	hits, misses, writes, all *series
	ops, failed               int64
	busy, elapsed             time.Duration
}

func newPlanMix(cfg *config) *planMix {
	rng := rand.New(rand.NewSource(cfg.seed))
	pm := &planMix{cfg: cfg}
	for i := 0; i < pmTables; i++ {
		card := math.Round(math.Pow(10, 2+4*rng.Float64()))
		t := pmTable{name: fmt.Sprintf("r%02d", i), card: card, distinct: map[string]float64{}}
		for c := 0; c < pmColumns; c++ {
			t.distinct[fmt.Sprintf("c%d", c)] = math.Max(2, math.Round(math.Pow(card, 0.3+0.7*rng.Float64())))
		}
		pm.tables = append(pm.tables, t)
	}
	seen := map[string]bool{}
	for rank := 0; rank < pmPool; rank++ {
		for {
			sql, key := pm.genQuery(rng, rank)
			if !seen[key] {
				seen[key] = true
				pm.pool = append(pm.pool, pmQuery{sql: sql})
				break
			}
		}
	}
	return pm
}

// genQuery draws the query of one Zipf rank and returns its SQL and a key
// that is equal for semantically equal queries. The rank fixes the query's
// structure — width, chain or star, which join columns are shared (and so
// which j-equivalence classes and implied predicates it has) and whether it
// has a local range predicate — so the popular queries cost the same to
// plan under every seed; the seed picks the tables, columns and constants.
func (pm *planMix) genQuery(rng *rand.Rand, rank int) (string, string) {
	width := pmMinWidth + rank%pmWidths
	star := (rank/pmWidths)%2 == 1
	local := (rank/(2*pmWidths))%2 == 1
	perm := rng.Perm(pmTables)[:width]
	names := make([]string, width)
	for i, p := range perm {
		names[i] = pm.tables[p].name
	}
	var preds, keys []string
	join := func(a string, ac int, b string, bc int) {
		l, r := fmt.Sprintf("%s.c%d", a, ac), fmt.Sprintf("%s.c%d", b, bc)
		preds = append(preds, l+" = "+r)
		if r < l {
			l, r = r, l
		}
		keys = append(keys, l+"="+r)
	}
	if star {
		// Dimensions alternate between two hub columns, forming two
		// j-equivalence classes.
		hub := rng.Intn(pmColumns)
		for i := 1; i < width; i++ {
			join(names[0], (hub+i%2)%pmColumns, names[i], rng.Intn(pmColumns))
		}
	} else {
		// Every other middle table joins both neighbours on one column,
		// so the chain closes transitively there.
		prev := rng.Intn(pmColumns)
		for i := 0; i+1 < width; i++ {
			left := prev
			if i%2 == 0 {
				left = (prev + 1 + rng.Intn(pmColumns-1)) % pmColumns
			}
			prev = rng.Intn(pmColumns)
			join(names[i], left, names[i+1], prev)
		}
	}
	if local {
		t := perm[rng.Intn(width)]
		c := rng.Intn(pmColumns)
		d := pm.tables[t].distinct[fmt.Sprintf("c%d", c)]
		p := fmt.Sprintf("%s.c%d < %d", pm.tables[t].name, c, 1+rng.Intn(int(d)))
		preds = append(preds, p)
		keys = append(keys, p)
	}
	sortedNames := append([]string(nil), names...)
	sort.Strings(sortedNames)
	sort.Strings(keys)
	sql := "SELECT COUNT(*) FROM " + strings.Join(names, ", ") + " WHERE " + strings.Join(preds, " AND ")
	return sql, strings.Join(sortedNames, ",") + "|" + strings.Join(keys, "&")
}

// build is the measured set-up: it opens a fresh durable system in its
// own directory, declares the tables, starts the operation stream and runs
// its first pmWarmOps operations, so the plan cache and the runtime are
// warm when timing starts.
func (pm *planMix) build(ctx context.Context, r *report, n int) error {
	dir := filepath.Join(pm.cfg.work, fmt.Sprintf("plan_mix-%d", n))
	sys, err := els.Open(dir)
	if err != nil {
		return err
	}
	sys.SetSpillDir(filepath.Join(dir, "spill"))
	for _, t := range pm.tables {
		if err := sys.DeclareStats(t.name, t.card, t.distinct); err != nil {
			sys.Close(ctx)
			return fmt.Errorf("declaring %s: %w", t.name, err)
		}
	}
	pm.sys, pm.dir = sys, dir
	pm.rng = rand.New(rand.NewSource(pm.cfg.seed + 1))
	pm.zipf = rand.NewZipf(pm.rng, pmZipfS, 1, pmPool-1)
	pm.op = 0
	pm.fills = map[string]pmFill{}
	if ph := pm.phase(ctx, r, 0, pmWarmOps, nil); ph.failed > 0 {
		sys.Close(ctx)
		return fmt.Errorf("%d of %d warm-up operations failed", ph.failed, ph.ops)
	}
	return nil
}

// nextWrite re-declares one table with a new cardinality drawn from the stream.
func (pm *planMix) nextWrite() pmTable {
	base := pm.tables[pm.rng.Intn(pmTables)]
	return pmTable{name: base.name, card: math.Round(base.card * (0.5 + 1.5*pm.rng.Float64())), distinct: base.distinct}
}

// phase runs the operation stream for d (or maxOps operations) and times
// every operation. With layers it also records the layer spans, on a
// mirror catalog kept equal to the system's.
func (pm *planMix) phase(ctx context.Context, r *report, d time.Duration, maxOps int64, l *layers) pmPhase {
	var tr *tracer
	if l != nil {
		tr = l.tr
	}
	start := time.Now()
	ph := pmPhase{hits: newSeries(start), misses: newSeries(start), writes: newSeries(start), all: newSeries(start)}
	for (d <= 0 || time.Since(start) < d) && (maxOps <= 0 || ph.ops < maxOps) {
		pm.op++
		root := 0
		var lat time.Duration
		var err error
		kind := ph.writes
		if pm.op%pmWriteEvery == 0 {
			if tr != nil {
				root = tr.start("op.write", 0)
			}
			lat, err = pm.write(r, l, root)
		} else {
			if tr != nil {
				root = tr.start("op.estimate", 0)
			}
			var hit bool
			lat, hit, err = pm.estimate(ctx, r, l, root)
			kind = ph.misses
			if hit {
				kind = ph.hits
			}
		}
		if tr != nil {
			tr.end(root)
		}
		ph.ops++
		ph.busy += lat
		ph.all.add(ms(lat))
		if err != nil {
			ph.failed++
			continue
		}
		kind.add(ms(lat))
	}
	ph.elapsed = time.Since(start)
	for _, s := range []*series{ph.hits, ph.misses, ph.writes, ph.all} {
		s.finish(ph.elapsed)
	}
	return ph
}

// write re-declares one table, and in a traced run the mirror with it.
func (pm *planMix) write(r *report, l *layers, root int) (time.Duration, error) {
	w := pm.nextWrite()
	call := 0
	if l != nil {
		call = l.tr.start("call.els.DeclareStats", root)
	}
	t0 := time.Now()
	err := pm.sys.DeclareStats(w.name, w.card, w.distinct)
	lat := time.Since(t0)
	if l != nil {
		l.tr.end(call)
		l.op(0)
		if err == nil {
			if err := l.mirror.AddTable(catalog.SimpleTable(w.name, w.card, w.distinct)); err != nil {
				r.fail("plan_mix: mirror rejected %s: %v", w.name, err)
			}
		}
	}
	return lat, err
}

// estimate runs the next pool query, classes it as a hit or a miss and
// checks a hit against the miss that filled it.
func (pm *planMix) estimate(ctx context.Context, r *report, l *layers, root int) (time.Duration, bool, error) {
	q := pm.pool[pm.zipf.Uint64()]
	call := 0
	if l != nil {
		call = l.tr.start("call.els.EstimateContext", root)
	}
	before := pm.sys.CacheStats().Hits
	t0 := time.Now()
	est, err := pm.sys.EstimateContext(ctx, q.sql, els.AlgorithmELS)
	lat := time.Since(t0)
	hit := pm.sys.CacheStats().Hits > before
	if l != nil {
		l.tr.end(call)
	}
	if err != nil {
		if l != nil {
			l.op(0)
		}
		return lat, hit, err
	}
	order := strings.Join(est.JoinOrder, ",")
	if hit {
		f, ok := pm.fills[q.sql]
		switch {
		case !ok:
			r.fail("plan_mix: hit with no recorded miss for %q", q.sql)
		case f.version != est.CatalogVersion || f.size != est.FinalSize || f.order != order:
			r.fail("plan_mix: hit at version %d returned %g [%s]; the miss at version %d returned %g [%s] for %q",
				est.CatalogVersion, est.FinalSize, order, f.version, f.size, f.order, q.sql)
		}
	} else {
		pm.fills[q.sql] = pmFill{version: est.CatalogVersion, size: est.FinalSize, order: order}
	}
	if l != nil {
		c, err := l.plan(ctx, root, q.sql, cardest.ELS(), governor.Limits{}, est.FinalSize)
		if err != nil {
			r.fail("plan_mix: mirror planning of %q: %v", q.sql, err)
		}
		paid := c.parse + c.canon
		if !hit {
			paid += c.estimation()
		}
		l.op(paid)
	}
	return lat, hit, nil
}

func runPlanMix(ctx context.Context, cfg *config, r *report) error {
	pm := newPlanMix(cfg)
	n := 0
	_, err := measureSetup(cfg, r, func() (struct{}, error) {
		n++
		return struct{}{}, pm.build(ctx, r, n)
	}, func(struct{}) error {
		if err := pm.sys.Close(ctx); err != nil {
			return err
		}
		return os.RemoveAll(pm.dir)
	})
	if err != nil {
		return err
	}
	defer func() { pm.sys.Close(ctx) }()

	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measure /= 2
	}
	before := pm.sys.CacheStats()
	ph := pm.phase(ctx, r, measure, 0, nil)
	r.Attempted, r.Failed = ph.ops, ph.failed
	after := pm.sys.CacheStats()
	lookups := (after.Hits + after.Misses) - (before.Hits + before.Misses)
	r.note("plan_mix: %d estimates (%d hits, %d misses), %d writes; cache hit ratio %.3f of %d lookups",
		ph.hits.total+ph.misses.total, ph.hits.total, ph.misses.total, ph.writes.total,
		float64(after.Hits-before.Hits)/float64(max(lookups, 1)), lookups)
	r.note("plan_mix: p50 of estimate hits %.4g ms, of misses %.4g ms, of writes %.4g ms",
		ph.hits.median50(), ph.misses.median50(), ph.writes.median50())
	r.setErrorRate()
	if !cfg.trace {
		setOpMetrics(r, ph.all.rate(), ph.all.median50(), ph.all.median90())
		return setPeakRSS(r)
	}
	return pm.traced(ctx, r, measure, ph)
}

// traced runs the traced phase after the untraced one and reports the
// per-layer metrics.
func (pm *planMix) traced(ctx context.Context, r *report, d time.Duration, untraced pmPhase) error {
	l, err := newLayers(pm.sys)
	if err != nil {
		return err
	}
	c0 := countersOf(pm.sys)
	ph := pm.phase(ctx, r, d, 0, l)
	c1 := countersOf(pm.sys)
	r.Attempted += ph.ops
	r.Failed += ph.failed
	l.report(r, untraced.time(), ph.time(), c0, c1)
	return l.tr.write(pm.cfg.spans, "plan_mix", pm.cfg.seed)
}

func (ph pmPhase) time() phaseTime { return phaseTime{ph.ops, ph.busy, ph.elapsed} }
