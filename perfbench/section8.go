package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	els "repro"
	"repro/internal/cardest"
	"repro/internal/governor"
)

// section8: one in-process client, closed loop. The paper's S/M/B/G tables
// at full scale (1k/10k/50k/100k rows, join columns generated as
// permutations exactly as datagen.PaperTables does) and its query, run in
// five legs: unbudgeted under SM, SM+PTC and ELS, and under SM with a
// memory budget, where the planner swaps sort-merge for the hash join —
// once with a budget no build exceeds (hash) and once with one that sends
// the builds down the Grace spill path (spill). SSS+PTC is left out: it
// picks the same plan as SM+PTC.
//
// Planning is almost free here; the executor and the governor do the work.
// The legs run in rounds, the query once under each leg, so an operation
// is one query and every leg has the same share of the operations: the
// median latency is the SM leg's and the 90th percentile the SM+PTC leg's,
// and throughput moves with every leg in proportion to its time. Every leg
// must count exactly 100 rows, each unbudgeted leg's final estimate must
// be the paper's, the hash leg must not spill and the spill leg must.
//
// The budgeted legs run on a second system loaded with the same data. The
// plan cache keys plans by query, algorithm and catalog version but not by
// memory budget, so on one system the budgeted SM legs would be served the
// unbudgeted leg's cached sort-merge plan.
const (
	s8Query    = "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100"
	s8Count    = 100
	s8HashMem  = 4 << 20
	s8SpillMem = 1 << 20
)

type s8Leg struct {
	name    string
	algo    els.Algorithm
	cfg     cardest.Config
	mem     int64
	wantEst float64 // the paper's final estimate; 0 checks spills instead
}

var s8Legs = []s8Leg{
	{name: "sm", algo: els.AlgorithmSM, cfg: cardest.SM(), wantEst: 100},
	{name: "smptc", algo: els.AlgorithmSMPTC, cfg: cardest.SM().WithClosure(), wantEst: 4e-21},
	{name: "els", algo: els.AlgorithmELS, cfg: cardest.ELS(), wantEst: 100},
	{name: "hash", algo: els.AlgorithmSM, cfg: cardest.SM(), mem: s8HashMem},
	{name: "spill", algo: els.AlgorithmSM, cfg: cardest.SM(), mem: s8SpillMem},
}

// s8Tables are the generated tables: name, join column, rows. Table i is
// generated with seed+i+1, as datagen.PaperTables does.
var s8Tables = []struct {
	name, column string
	rows         int
}{{"S", "s", 1000}, {"M", "m", 10000}, {"B", "b", 50000}, {"G", "g", 100000}}

type s8Systems struct{ plain, budgeted *els.System }

func s8Build(cfg *config, n int) (s8Systems, error) {
	var out s8Systems
	for i, sys := range []**els.System{&out.plain, &out.budgeted} {
		s := els.New()
		s.SetSpillDir(filepath.Join(cfg.work, fmt.Sprintf("spill-%d-%d", n, i)))
		for j, t := range s8Tables {
			if err := s.GenerateTable(t.name, t.column, "permutation", t.rows, 0, 0, cfg.seed+int64(j)+1); err != nil {
				return out, err
			}
		}
		*sys = s
	}
	return out, nil
}

// s8Phase is one timed phase: every query's latency in ms, and each leg's.
type s8Phase struct {
	all         []float64
	lat         map[string][]float64
	ops, failed int64
	busy        time.Duration
	elapsed     time.Duration
}

func (ph s8Phase) time() phaseTime { return phaseTime{ph.ops, ph.busy, ph.elapsed} }

type section8 struct{ sys s8Systems }

func (s *section8) system(l s8Leg) *els.System {
	if l.mem > 0 {
		return s.sys.budgeted
	}
	return s.sys.plain
}

// check verifies one leg's result.
func (s *section8) check(r *report, l s8Leg, res *els.Result) {
	if res.Count != s8Count {
		r.fail("section8 %s: counted %d rows, want %d", l.name, res.Count, s8Count)
	}
	if l.wantEst != 0 && math.Abs(res.Estimate.FinalSize-l.wantEst) > 1e-9*l.wantEst {
		r.fail("section8 %s: final estimate %g, want %g", l.name, res.Estimate.FinalSize, l.wantEst)
	}
	switch l.name {
	case "hash":
		if res.SpillCount != 0 {
			r.fail("section8 hash: %d spills under a %d-byte budget, want none", res.SpillCount, l.mem)
		}
	case "spill":
		if res.SpillCount == 0 {
			r.fail("section8 spill: no spill under a %d-byte budget", l.mem)
		}
	}
}

// phase runs rounds over the legs until d has passed (at least one round).
// With layers it also records the layer spans of every query.
func (s *section8) phase(ctx context.Context, r *report, d time.Duration, ly *layers) s8Phase {
	ph := s8Phase{lat: map[string][]float64{}}
	start := time.Now()
	for ph.ops == 0 || time.Since(start) < d {
		for _, l := range s8Legs {
			sys := s.system(l)
			sys.SetLimits(els.Limits{MaxMemory: l.mem})
			root, call := 0, 0
			if ly != nil {
				root = ly.tr.start("op.query."+l.name, 0)
				call = ly.tr.start("call.els.QueryContext", root)
			}
			t0 := time.Now()
			res, err := sys.QueryContext(ctx, s8Query, l.algo)
			lat := time.Since(t0)
			ph.ops++
			ph.busy += lat
			ph.all = append(ph.all, ms(lat))
			if ly != nil {
				ly.tr.end(call)
			}
			if err != nil {
				ph.failed++
				r.note("section8 %s: %v", l.name, err)
				if ly != nil {
					ly.op(0)
				}
			} else {
				ph.lat[l.name] = append(ph.lat[l.name], ms(lat))
				s.check(r, l, res)
				if ly != nil {
					s.traceLayers(ctx, r, ly, root, l, res)
				}
			}
			if ly != nil {
				ly.tr.end(root)
			}
		}
	}
	ph.elapsed = time.Since(start)
	return ph
}

// traceLayers re-plans the query on the mirror under the leg's estimator
// and limits, and adds the system's own executor and governor figures.
// The system serves every leg's plan from its cache, so a query pays
// parse, canonicalization and execution.
func (s *section8) traceLayers(ctx context.Context, r *report, ly *layers, root int, l s8Leg, res *els.Result) {
	c, err := ly.plan(ctx, root, s8Query, l.cfg, governor.Limits{MaxMemory: l.mem}, res.Estimate.FinalSize)
	if err != nil {
		r.fail("section8 %s: mirror planning: %v", l.name, err)
	}
	ly.executed(res)
	ly.op(c.parse + c.canon + res.Elapsed)
}

func runSection8(ctx context.Context, cfg *config, r *report) error {
	s := &section8{}
	n := 0
	sys, err := measureSetup(cfg, r, func() (s8Systems, error) {
		n++
		return s8Build(cfg, n)
	}, func(s8Systems) error { return nil })
	if err != nil {
		return err
	}
	s.sys = sys
	// Warm-up: one query per leg fills the plan caches.
	for _, l := range s8Legs {
		s.system(l).SetLimits(els.Limits{MaxMemory: l.mem})
		if _, err := s.system(l).QueryContext(ctx, s8Query, l.algo); err != nil {
			return fmt.Errorf("section8 warm-up %s: %w", l.name, err)
		}
	}
	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measure /= 2
	}
	ph := s.phase(ctx, r, measure, nil)
	r.Attempted, r.Failed = ph.ops, ph.failed
	for _, l := range s8Legs {
		lat := ph.lat[l.name]
		r.note("section8 %s: %d queries, quartiles %.4g %.4g %.4g ms", l.name, len(lat),
			quantile(lat, 0.25), quantile(lat, 0.5), quantile(lat, 0.75))
	}
	r.setErrorRate()
	if !cfg.trace {
		setOpMetrics(r, ph.time().throughput(), quantile(ph.all, 0.5), quantile(ph.all, 0.9))
		return setPeakRSS(r)
	}

	// Both systems hold the same statistics; the mirror is the plain one's.
	ly, err := newLayers(s.sys.plain)
	if err != nil {
		return err
	}
	c0 := [2]systemCounters{countersOf(s.sys.plain), countersOf(s.sys.budgeted)}
	tph := s.phase(ctx, r, measure, ly)
	c1 := [2]systemCounters{countersOf(s.sys.plain), countersOf(s.sys.budgeted)}
	r.Attempted += tph.ops
	r.Failed += tph.failed
	r.note("section8: %d spills over %d traced queries, peak query bytes %d", ly.spills, tph.ops, ly.peakBytes)
	ly.report(r, ph.time(), tph.time(), c0[0].plus(c0[1]), c1[0].plus(c1[1]))
	return ly.tr.write(cfg.spans, "section8", cfg.seed)
}
