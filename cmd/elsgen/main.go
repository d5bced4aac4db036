// Command elsgen generates synthetic integer datasets as CSV on stdout,
// using the same seeded generators the experiments use. It exists so the
// workloads are inspectable and reusable outside the Go test harness.
//
// Usage:
//
//	elsgen -rows 10000 -cols "k:uniform:100,v:zipf:1000:0.9" [-seed 42] [-header]
//
// Each column spec is name:distribution:domain[:theta] with distribution
// one of uniform, zipf, permutation, sequential (permutation ignores the
// domain and uses the row count).
//
// -data-dir records the generated table's exact statistics (cardinality
// and per-column distinct counts, computed from the data) in a durable
// catalog directory via the WAL, checkpointed on exit, so downstream tools
// (elsrepl -data-dir, elsexplain -data-dir) can estimate over the dataset
// without re-scanning the CSV.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	els "repro"
	"repro/internal/datagen"
	"repro/internal/governor"
	"repro/internal/storage"
	"repro/internal/workpool"
)

func main() {
	rows := flag.Int("rows", 1000, "number of rows")
	cols := flag.String("cols", "k:uniform:100", "column specs name:dist:domain[:theta], comma separated")
	seed := flag.Int64("seed", 42, "generator seed")
	header := flag.Bool("header", false, "emit a CSV header row")
	workers := flag.Int("workers", 0, "CSV formatting parallelism (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for generation (0 = none)")
	maxMemory := flag.Int64("max-memory", 0, "per-query working-memory byte budget for the durable session that persists statistics (-data-dir); 0 = none")
	name := flag.String("name", "gen", "table name for the durable catalog entry (-data-dir)")
	dataDir := flag.String("data-dir", "", "durable catalog directory: record the generated table's exact statistics, checkpointed on exit")
	flag.Parse()

	err := withTimeout(*timeout, func() error {
		return run(*rows, *cols, *seed, *header, *workers, *maxMemory, *name, *dataDir, os.Stdout)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "elsgen:", err)
		os.Exit(1)
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

func run(rows int, cols string, seed int64, header bool, workers int, maxMemory int64, name, dataDir string, w io.Writer) error {
	spec := datagen.TableSpec{Name: name, Rows: rows}
	var names []string
	for _, c := range strings.Split(cols, ",") {
		cs, err := parseColumnSpec(strings.TrimSpace(c))
		if err != nil {
			return err
		}
		spec.Columns = append(spec.Columns, cs)
		names = append(names, cs.Name)
	}
	tbl, err := datagen.Generate(spec, seed)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(w)
	defer out.Flush()
	if header {
		fmt.Fprintln(out, strings.Join(names, ","))
	}
	// Format row chunks in parallel and write the buffers in chunk order,
	// so the output is byte-identical to a serial loop. Generation itself
	// stays serial: the rng streams are seeded sequences.
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := chunkRows(tbl.NumRows(), workers)
	bufs := make([]bytes.Buffer, len(chunks))
	err = workpool.Run(workers, len(chunks), func(i int) error {
		buf := &bufs[i]
		for r := chunks[i][0]; r < chunks[i][1]; r++ {
			for c := 0; c < len(names); c++ {
				if c > 0 {
					buf.WriteByte(',')
				}
				fmt.Fprintf(buf, "%d", tbl.Value(r, c).Int())
			}
			buf.WriteByte('\n')
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range bufs {
		if _, err := out.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	if dataDir != "" {
		if err := persistStats(dataDir, name, names, maxMemory, tbl); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "elsgen: recorded statistics for %q in %s\n", name, dataDir)
	}
	return nil
}

// persistStats records the generated table's exact statistics — row count
// and per-column distinct counts computed from the data — in the durable
// catalog at dir. The declaration goes through the WAL (acknowledged only
// after fsync) and is compacted into a checkpoint before the tool exits.
func persistStats(dir, name string, colNames []string, maxMemory int64, tbl *storage.Table) error {
	distinct := make(map[string]float64, len(colNames))
	seen := make(map[int64]struct{})
	for c, cn := range colNames {
		clear(seen)
		for r := 0; r < tbl.NumRows(); r++ {
			seen[tbl.Value(r, c).Int()] = struct{}{}
		}
		distinct[cn] = float64(len(seen))
	}
	sys, err := els.Open(dir)
	if err != nil {
		return err
	}
	if maxMemory > 0 {
		sys.SetLimits(els.Limits{MaxMemory: maxMemory})
	}
	if err := sys.DeclareStats(name, float64(tbl.NumRows()), distinct); err != nil {
		return err
	}
	if err := sys.Checkpoint(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return sys.Close(ctx)
}

// chunkRows splits [0, n) into up to workers*4 contiguous [start, end)
// ranges of at least 1024 rows each.
func chunkRows(n, workers int) [][2]int {
	const minChunk = 1024
	chunks := workers * 4
	if chunks > (n+minChunk-1)/minChunk {
		chunks = (n + minChunk - 1) / minChunk
	}
	if chunks < 1 {
		chunks = 1
	}
	var out [][2]int
	for i := 0; i < chunks; i++ {
		start, end := i*n/chunks, (i+1)*n/chunks
		if start < end {
			out = append(out, [2]int{start, end})
		}
	}
	return out
}

func parseColumnSpec(s string) (datagen.ColumnSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 {
		return datagen.ColumnSpec{}, fmt.Errorf("bad column spec %q (want name:dist:domain[:theta])", s)
	}
	cs := datagen.ColumnSpec{Name: parts[0]}
	switch strings.ToLower(parts[1]) {
	case "uniform":
		cs.Dist = datagen.DistUniform
	case "zipf":
		cs.Dist = datagen.DistZipf
	case "permutation":
		cs.Dist = datagen.DistPermutation
	case "sequential":
		cs.Dist = datagen.DistSequential
	default:
		return datagen.ColumnSpec{}, fmt.Errorf("unknown distribution %q in %q", parts[1], s)
	}
	if len(parts) >= 3 && cs.Dist != datagen.DistPermutation {
		d, err := strconv.Atoi(parts[2])
		if err != nil {
			return datagen.ColumnSpec{}, fmt.Errorf("bad domain in %q: %v", s, err)
		}
		cs.Domain = d
	}
	if len(parts) >= 4 {
		t, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return datagen.ColumnSpec{}, fmt.Errorf("bad theta in %q: %v", s, err)
		}
		cs.Theta = t
	}
	return cs, nil
}
