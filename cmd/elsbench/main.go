// Command elsbench runs the paper's experiments end-to-end and prints the
// reproduced tables.
//
// Usage:
//
//	elsbench [-experiment all|section8|examples|chain|zipf|urn|random|repeated]
//	         [-scale N] [-seed N] [-estimates-only] [-workers N]
//	         [-json BENCH_results.json]
//
// The default runs everything. -scale divides the Section 8 table sizes
// (scale 1 is the paper's full size; 10 is a fast smoke test). -workers sets
// the intra-query parallelism of the executed experiments (0 = GOMAXPROCS;
// results and work counters are worker-invariant). -json additionally writes
// a machine-readable report with per-experiment wall time, tuples scanned and
// worker count, plus cache_hit_rate (the plan cache's hit rate on the
// "repeated" Zipf-skewed statement workload).
//
// -data-dir additionally benchmarks the durable catalog layer: the Section
// 8 statistics catalog (at the run's -scale) is declared through the WAL,
// checkpointed halfway, and then recovered with a fresh els.Open whose
// wall-clock time, replayed record count, and WAL byte volume land in the
// -json report as recovery_ms, recovery_replayed_records, and
// recovery_wal_bytes.
//
// -replicas N (with -data-dir) additionally benchmarks the replication
// layer: N cold read replicas attach to the recovered catalog, and the
// report records how long the fleet takes to catch up to the primary's
// version (replica_catchup_ms) and its aggregate estimate throughput once
// caught up (replica_reads_per_sec).
//
// -server additionally benchmarks the networked serving layer: an
// in-process wire server with one deliberately small tenant is hammered by
// an oversubscribed client swarm, and the report records the
// client-observed p99 round-trip latency (server_p99_ms) and the fraction
// of requests the admission bulkhead shed with the typed overload error
// (shed_rate).
//
// -max-memory additionally benchmarks the memory-governance layer: the
// seeded differential workload is executed under that per-query byte
// budget so oversized hash-join build sides spill to disk, and the report
// records the fraction of queries that spilled (spill_rate), the largest
// per-query working-set high-water mark (peak_query_bytes), and the total
// spilled run volume (memory_spilled_bytes).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	els "repro"
	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/experiment"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/querygen"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workpool"
)

func main() {
	var (
		which       = flag.String("experiment", "all", "experiments to run (comma-separated): all, section8, examples, indexed, chain, zipf, urn, sampled, independence, random, repeated")
		scale       = flag.Int("scale", 1, "divide the Section 8 table sizes by this factor")
		seed        = flag.Int64("seed", 42, "random seed for data generation")
		estimates   = flag.Bool("estimates-only", false, "skip data generation and execution (Section 8)")
		workers     = flag.Int("workers", 0, "intra-query parallelism for executed experiments (0 = GOMAXPROCS, 1 = serial)")
		jsonPath    = flag.String("json", "", "also write a machine-readable bench report to this path")
		timeout     = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
		dataDir     = flag.String("data-dir", "", "durable catalog directory: persist the Section 8 statistics catalog, checkpoint on exit, and measure recovery_ms")
		replicas    = flag.Int("replicas", 0, "with -data-dir: attach N WAL-shipped read replicas, measure cold catch-up time and follower read throughput")
		serverBench = flag.Bool("server", false, "benchmark the wire server: oversubscribed client swarm against an in-process elsserve tenant, measure server_p99_ms and shed_rate")
		maxMemory   = flag.Int64("max-memory", 0, "benchmark memory governance: per-query byte budget for the spill workload, measure spill_rate and peak_query_bytes (0 = skip)")
	)
	flag.Parse()
	report := &experiment.BenchReport{Scale: *scale, Seed: *seed, GoMaxProcs: runtime.GOMAXPROCS(0)}
	err := withTimeout(*timeout, func() error {
		return run(os.Stdout, *which, *scale, *seed, *estimates, *workers, report)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "elsbench:", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		if err := measureRecovery(*dataDir, *scale, report); err != nil {
			fmt.Fprintln(os.Stderr, "elsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "durable recovery of %s: %.3f ms (%d wal records replayed, %d wal bytes)\n",
			*dataDir, report.RecoveryMillis, report.RecoveryReplayedRecords, report.RecoveryWALBytes)
	}
	if *replicas > 0 {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "elsbench: -replicas requires -data-dir")
			os.Exit(1)
		}
		if err := measureReplication(*dataDir, *replicas, report); err != nil {
			fmt.Fprintln(os.Stderr, "elsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "replication: %d cold replicas caught up in %.3f ms; %.0f follower reads/s\n",
			report.Replicas, report.ReplicaCatchupMillis, report.ReplicaReadsPerSec)
	}
	if *serverBench {
		if err := measureServer(report); err != nil {
			fmt.Fprintln(os.Stderr, "elsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "server: p99 round trip %.3f ms; %.1f%% of swarm requests shed by admission\n",
			report.ServerP99Millis, report.ShedRate*100)
	}
	if *maxMemory > 0 {
		if err := measureMemory(*maxMemory, *seed, report); err != nil {
			fmt.Fprintln(os.Stderr, "elsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "memory governance at %d bytes/query: %.1f%% of queries spilled; peak query working set %d bytes; %d bytes spilled to disk\n",
			*maxMemory, report.SpillRate*100, report.PeakQueryBytes, report.MemorySpilledBytes)
	}
	if *jsonPath != "" {
		if err := experiment.WriteBenchJSON(*jsonPath, report); err != nil {
			fmt.Fprintln(os.Stderr, "elsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "bench report written to %s\n", *jsonPath)
	}
}

// withTimeout bounds f's wall-clock time, reporting overrun as the same
// typed budget error the library's governor produces. On timeout the
// worker goroutine is abandoned — acceptable here because main exits
// immediately afterwards.
func withTimeout(d time.Duration, f func() error) error {
	if d <= 0 {
		return f()
	}
	start := time.Now()
	done := workpool.Async(f)
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return &governor.BudgetError{
			Resource: "wall-clock", Limit: int64(d), Used: int64(time.Since(start)),
		}
	}
}

func run(w io.Writer, which string, scale int, seed int64, estimatesOnly bool, workers int, report *experiment.BenchReport) error {
	// Each step prints its human table and returns the executor tuples it
	// scanned (0 for estimator-only sweeps) plus the worker count it used,
	// so the bench report can record both alongside the measured wall time.
	steps := []struct {
		name string
		fn   func() (tuples int64, usedWorkers int, err error)
	}{
		{"examples", func() (int64, int, error) {
			examples, err := experiment.RunWorkedExamples()
			if err != nil {
				return 0, 1, err
			}
			fmt.Fprint(w, experiment.FormatWorkedExamples(examples))
			fmt.Fprintln(w)
			return 0, 1, nil
		}},
		{"section8", func() (int64, int, error) {
			res, err := experiment.RunSection8(experiment.Section8Options{
				Scale: scale, Seed: seed, SkipExecution: estimatesOnly, Workers: workers,
			})
			if err != nil {
				return 0, 0, err
			}
			fmt.Fprint(w, experiment.FormatSection8(res))
			fmt.Fprintln(w)
			for _, row := range res.Rows {
				fmt.Fprintf(w, "--- %s / %s plan:\n%s\n", row.Query, row.Algorithm, row.Plan)
			}
			return experiment.SumTuplesScanned(res), resolveWorkers(workers), nil
		}},
		{"indexed", func() (int64, int, error) {
			if estimatesOnly {
				fmt.Fprintln(w, "(indexed experiment skipped: requires execution)")
				return 0, 1, nil
			}
			res, err := experiment.RunSection8(experiment.Section8Options{
				Scale: scale, Seed: seed, WithIndexes: true, Workers: workers,
			})
			if err != nil {
				return 0, 0, err
			}
			fmt.Fprintln(w, "A6: Section 8 with ordered indexes on all join columns (index NL enabled)")
			fmt.Fprint(w, experiment.FormatSection8(res))
			fmt.Fprintln(w)
			return experiment.SumTuplesScanned(res), resolveWorkers(workers), nil
		}},
		{"chain", func() (int64, int, error) {
			rows, err := experiment.RunChainLengthSweep(8, 30, seed)
			if err != nil {
				return 0, 1, err
			}
			fmt.Fprint(w, experiment.FormatChainLengthSweep(rows))
			fmt.Fprintln(w)
			return 0, 1, nil
		}},
		{"zipf", func() (int64, int, error) {
			rows, err := experiment.RunZipfSweep(2000, 5000, 500, []float64{0, 0.25, 0.5, 0.75, 1.0}, seed)
			if err != nil {
				return 0, 1, err
			}
			fmt.Fprint(w, experiment.FormatZipfSweep(rows))
			fmt.Fprintln(w)
			return 0, 1, nil
		}},
		{"urn", func() (int64, int, error) {
			rows, err := experiment.RunUrnVsLinear(100000, 10000,
				[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}, seed)
			if err != nil {
				return 0, 1, err
			}
			fmt.Fprint(w, experiment.FormatUrnVsLinear(rows))
			fmt.Fprintln(w)
			return 0, 1, nil
		}},
		{"sampled", func() (int64, int, error) {
			rows, err := experiment.RunSampledStats(20000, []int{500, 2000, 10000}, seed)
			if err != nil {
				return 0, 1, err
			}
			fmt.Fprint(w, experiment.FormatSampledStats(rows))
			fmt.Fprintln(w)
			return 0, 1, nil
		}},
		{"independence", func() (int64, int, error) {
			rows, err := experiment.RunIndependenceSweep(100000, 200, 0.2, seed)
			if err != nil {
				return 0, 1, err
			}
			fmt.Fprint(w, experiment.FormatIndependenceSweep(rows))
			fmt.Fprintln(w)
			return 0, 1, nil
		}},
		{"random", func() (int64, int, error) {
			rows, err := experiment.RunRandomQueries(30, seed)
			if err != nil {
				return 0, 1, err
			}
			fmt.Fprint(w, experiment.FormatRandomQueries(rows))
			fmt.Fprintln(w)
			return 0, 1, nil
		}},
		{"repeated", func() (int64, int, error) {
			if err := runRepeated(w, seed, report); err != nil {
				return 0, 1, err
			}
			return 0, 1, nil
		}},
	}
	// -experiment accepts a comma-separated list ("section8,repeated"), so
	// one invocation can land several measurements in a single report.
	all := false
	want := make(map[string]bool)
	for _, name := range strings.Split(which, ",") {
		if name = strings.TrimSpace(name); name == "all" {
			all = true
		} else if name != "" {
			want[name] = true
		}
	}
	if !all && len(want) == 0 {
		return fmt.Errorf("unknown experiment %q", which)
	}
	for _, step := range steps {
		if !all && !want[step.name] {
			continue
		}
		delete(want, step.name)
		start := time.Now()
		tuples, usedWorkers, err := step.fn()
		if err != nil {
			return err
		}
		report.Results = append(report.Results, experiment.BenchResult{
			Experiment:    step.name,
			Workers:       usedWorkers,
			WallMillis:    float64(time.Since(start).Microseconds()) / 1000,
			TuplesScanned: tuples,
		})
	}
	for name := range want {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// runRepeated drives the plan cache with the shape of a dashboard or
// reporting workload: a fixed pool of generated statements re-issued on a
// Zipf-skewed schedule through the full serving stack (parse, bind, plan
// cache, estimate). The resulting hit rate lands in the report as
// cache_hit_rate; with a pool much smaller than the issue count it should
// clear 0.9 comfortably.
func runRepeated(w io.Writer, seed int64, report *experiment.BenchReport) error {
	const (
		poolSize = 25
		issues   = 500
		skew     = 1.5
	)
	sys := els.New()
	pool := make([]string, poolSize)
	for i := range pool {
		q := querygen.GenerateNamed(seed+int64(i), fmt.Sprintf("W%dT", i))
		for _, spec := range q.Specs {
			distinct := make(map[string]float64, len(spec.Columns))
			for _, col := range spec.Columns {
				d := float64(col.Domain)
				if rows := float64(spec.Rows); d > rows {
					d = rows
				}
				distinct[col.Name] = d
			}
			if err := sys.DeclareStats(spec.Name, float64(spec.Rows), distinct); err != nil {
				return err
			}
		}
		pool[i] = q.SQL()
	}
	for _, idx := range querygen.RepeatSchedule(seed, poolSize, issues, skew) {
		if _, err := sys.Estimate(pool[idx], els.AlgorithmELS); err != nil {
			return fmt.Errorf("repeated workload %q: %w", pool[idx], err)
		}
	}
	st := sys.CacheStats()
	report.CacheHitRate = st.HitRate()
	fmt.Fprintf(w, "repeated workload: %d issues over %d distinct statements (zipf %g): %d hits, %d misses — hit rate %.3f\n\n",
		issues, poolSize, skew, st.Hits, st.Misses, report.CacheHitRate)
	return nil
}

// measureRecovery exercises the durable catalog end to end: declare the
// Section 8 statistics catalog (at the run's scale) through the WAL,
// compact it into an atomic checkpoint, close, and time a cold els.Open —
// checkpoint load plus WAL replay — as the report's recovery_ms.
func measureRecovery(dir string, scale int, report *experiment.BenchReport) error {
	if scale < 1 {
		scale = 1
	}
	sys, err := els.Open(dir)
	if err != nil {
		return err
	}
	section8 := []struct {
		name string
		card float64
		col  string
	}{
		{"S", 1000, "s"}, {"M", 10000, "m"}, {"B", 50000, "b"}, {"G", 100000, "g"},
	}
	for i, t := range section8 {
		card := t.card / float64(scale)
		if err := sys.DeclareStats(t.name, card, map[string]float64{t.col: card}); err != nil {
			return err
		}
		// Checkpoint halfway so the recovery measurement exercises both
		// paths: checkpoint load AND a WAL-suffix replay.
		if i == len(section8)/2-1 {
			if err := sys.Checkpoint(); err != nil {
				return err
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Close(ctx); err != nil {
		return err
	}
	start := time.Now()
	recovered, err := els.Open(dir)
	if err != nil {
		return err
	}
	report.RecoveryMillis = float64(time.Since(start).Microseconds()) / 1000
	d := recovered.DurabilityStats()
	report.RecoveryReplayedRecords = d.ReplayedRecords
	report.RecoveryWALBytes = d.WALBytes
	return recovered.Close(ctx)
}

// measureReplication reopens the durable catalog the recovery measurement
// left behind as a replication primary, cold-attaches n read replicas
// (each with its own durable directory under dir), and measures how long
// the fleet takes to catch up to the primary's catalog version, then the
// fleet's aggregate read throughput at lag 0.
func measureReplication(dir string, n int, report *experiment.BenchReport) error {
	sys, err := els.Open(dir)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer sys.Close(ctx)

	// Widen the shipped history so catch-up replays real deltas, not just
	// one full frame.
	for i := 0; i < 32; i++ {
		card := float64(1000 + i)
		if err := sys.DeclareStats(fmt.Sprintf("RT%d", i), card, map[string]float64{"k": card}); err != nil {
			return err
		}
	}

	start := time.Now()
	reps := make([]*els.Replica, n)
	for i := range reps {
		rep, err := els.OpenReplica(filepath.Join(dir, fmt.Sprintf("replica%d", i)))
		if err != nil {
			return err
		}
		defer rep.Close(ctx)
		if err := sys.AttachReplica(rep); err != nil {
			return err
		}
		reps[i] = rep
	}
	if err := sys.WaitForReplicas(ctx); err != nil {
		return err
	}
	report.Replicas = n
	report.ReplicaCatchupMillis = float64(time.Since(start).Microseconds()) / 1000

	// Aggregate follower read throughput: every caught-up replica serves a
	// fixed batch of estimates concurrently.
	const readsPerReplica = 2000
	const probe = "SELECT COUNT(*) FROM S, M WHERE s = m"
	start = time.Now()
	done := make([]<-chan error, n)
	for i, rep := range reps {
		rep := rep
		done[i] = workpool.Async(func() error {
			for j := 0; j < readsPerReplica; j++ {
				if _, err := rep.Estimate(probe, els.AlgorithmELS); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for _, ch := range done {
		if err := <-ch; err != nil {
			return err
		}
	}
	report.ReplicaReadsPerSec = float64(readsPerReplica*n) / time.Since(start).Seconds()
	return nil
}

// measureServer benchmarks the networked serving path: an in-process wire
// server hosting one tenant whose admission limits are deliberately small,
// hammered by an oversubscribed swarm of wire clients executing count
// queries over a loaded join.
// Client-observed p99 round-trip latency lands in server_p99_ms, and the
// fraction of requests shed with the typed overload error — the bulkhead
// engaging, not a failure — lands in shed_rate.
func measureServer(report *experiment.BenchReport) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := server.Start(ctx, server.Config{
		Addr: "127.0.0.1:0",
		Tenants: []server.TenantConfig{{
			Name: "bench",
			Limits: els.Limits{
				Timeout:       5 * time.Second,
				MaxConcurrent: 4,
				MaxQueue:      4,
				QueueTimeout:  5 * time.Millisecond,
			},
			Bootstrap: func(sys *els.System) error {
				mk := func(n, mod int) [][]int64 {
					rows := make([][]int64, n)
					for i := range rows {
						rows[i] = []int64{int64(i % mod)}
					}
					return rows
				}
				if err := sys.LoadTable("S", []string{"s"}, mk(2500, 50)); err != nil {
					return err
				}
				return sys.LoadTable("M", []string{"m"}, mk(2500, 50))
			},
		}},
	})
	if err != nil {
		return err
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		srv.Shutdown(sctx)
	}()

	// 12 connections against 4 slots + 4 queue positions, with queries
	// sized to tens of milliseconds: enough oversubscription that both
	// shed paths (queue full, queue timeout) engage while most requests
	// still succeed. The query must span several scheduler preemption
	// quanta — sub-quantum queries complete before waiters can even enter
	// the admission queue on a small box, and nothing sheds.
	const clients = 12
	const opsPerClient = 60
	const probe = "SELECT COUNT(*) FROM S, M WHERE s = m"
	type swarmResult struct {
		latencies []time.Duration
		sheds     int
	}
	results := make([]swarmResult, clients)
	done := make([]<-chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		done[i] = workpool.Async(func() error {
			cl, err := wire.Dial(ctx, srv.Addr())
			if err != nil {
				return err
			}
			defer cl.Close()
			res := &results[i]
			res.latencies = make([]time.Duration, 0, opsPerClient)
			for j := 0; j < opsPerClient; j++ {
				start := time.Now()
				_, err := cl.Do(ctx, &wire.Request{Op: wire.OpQuery, Tenant: "bench", SQL: probe})
				res.latencies = append(res.latencies, time.Since(start))
				if err != nil {
					if errors.Is(err, els.ErrOverloaded) {
						res.sheds++
						continue
					}
					return err
				}
			}
			return nil
		})
	}
	for _, ch := range done {
		if err := <-ch; err != nil {
			return err
		}
	}

	var all []time.Duration
	var sheds int
	for _, res := range results {
		all = append(all, res.latencies...)
		sheds += res.sheds
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[len(all)*99/100]
	report.ServerP99Millis = float64(p99.Microseconds()) / 1000
	report.ShedRate = float64(sheds) / float64(len(all))
	return nil
}

// measureMemory benchmarks the memory-governance layer: the seeded
// differential workload — hash joins only, so every oversized build side
// takes the spill path rather than failing — executed under a per-query
// byte budget. The fraction of queries whose hash joins spilled lands in
// spill_rate, the largest per-query ledger high-water mark in
// peak_query_bytes, and the total run volume written to disk in
// memory_spilled_bytes.
func measureMemory(maxMemory, seed int64, report *experiment.BenchReport) error {
	const queries = 100
	spillDir, err := os.MkdirTemp("", "elsbench-spill")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spillDir)
	var spilled int
	for s := int64(0); s < queries; s++ {
		q := querygen.Generate(seed + s)
		q.Methods = []optimizer.JoinMethod{optimizer.HashJoin}
		cat := catalog.New()
		for _, spec := range q.Specs {
			tbl, err := datagen.Generate(spec, q.DataSeed+int64(len(spec.Name)))
			if err != nil {
				return fmt.Errorf("memory workload seed %d: datagen: %w", seed+s, err)
			}
			if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
				return fmt.Errorf("memory workload seed %d: analyze: %w", seed+s, err)
			}
		}
		est, err := cardest.New(cat, q.Tables, q.Preds, cardest.ELS())
		if err != nil {
			return fmt.Errorf("memory workload seed %d: cardest: %w", seed+s, err)
		}
		opt, err := optimizer.New(est, optimizer.Options{Methods: q.Methods, Workers: 1})
		if err != nil {
			return fmt.Errorf("memory workload seed %d: optimizer: %w", seed+s, err)
		}
		plan, err := opt.BestPlan()
		if err != nil {
			return fmt.Errorf("memory workload seed %d: plan: %w", seed+s, err)
		}
		gov := governor.New(context.Background(), governor.Limits{MaxMemory: maxMemory})
		exec := executor.NewGoverned(cat, gov)
		exec.SetSpillDir(spillDir)
		if _, err := exec.Execute(plan); err != nil {
			return fmt.Errorf("memory workload seed %d: execute: %w", seed+s, err)
		}
		count, bytes := gov.SpillStats()
		if count > 0 {
			spilled++
		}
		report.MemorySpilledBytes += bytes
		if _, peak, _ := gov.MemoryUsage(); peak > report.PeakQueryBytes {
			report.PeakQueryBytes = peak
		}
	}
	report.SpillRate = float64(spilled) / float64(queries)
	return nil
}

// resolveWorkers mirrors the executor's default: 0 means GOMAXPROCS.
func resolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
