// Command elsexplain shows how each estimation algorithm sees a query:
// the transitive closure it derives, the plan it picks, and the
// intermediate-size estimates along that plan.
//
// Tables are declared with repeated -table flags of the form
// "name:cardinality:col=distinct[,col=distinct...]", e.g.
//
//	elsexplain \
//	  -table "S:1000:s=1000" -table "M:10000:m=10000" \
//	  -table "B:50000:b=50000" -table "G:100000:g=100000" \
//	  -sql "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100"
//
// With no -table flags, the Section 8 catalog above is preloaded.
//
// -data-dir explains against a durable catalog directory (written by
// elsrepl, elsgen, or elsbench with the same flag): recovered statistics
// replace the built-in defaults, any -table declarations are persisted
// through the WAL, and the store is checkpointed on exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	els "repro"
)

type tableFlags []string

func (t *tableFlags) String() string { return strings.Join(*t, "; ") }
func (t *tableFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	var tables tableFlags
	flag.Var(&tables, "table", "table spec name:card:col=distinct[,col=distinct...] (repeatable)")
	sql := flag.String("sql", "", "query to explain (required)")
	algo := flag.String("algo", "", "single algorithm to show (default: all)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per explain (0 = none)")
	maxPlans := flag.Int64("max-plans", 0, "enumerated-plan budget per explain (0 = none)")
	maxMemory := flag.Int64("max-memory", 0, "working-memory byte budget per query (0 = none); hash joins over it spill to disk")
	workers := flag.Int("workers", 0, "plan-search parallelism (0 = GOMAXPROCS, 1 = serial)")
	dataDir := flag.String("data-dir", "", "durable catalog directory: recover statistics from it, persist -table declarations, checkpoint on exit")
	flag.Parse()

	if err := run(tables, *sql, *algo, *dataDir, els.Limits{
		Timeout: *timeout, MaxPlans: *maxPlans, MaxMemory: *maxMemory,
		Workers: *workers,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "elsexplain:", err)
		os.Exit(1)
	}
}

func run(tables []string, sql, algoName, dataDir string, limits els.Limits) error {
	if sql == "" {
		return fmt.Errorf("-sql is required")
	}
	sys := els.New()
	if dataDir != "" {
		var err error
		if sys, err = els.Open(dataDir); err != nil {
			return err
		}
		defer func() {
			if err := sys.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "elsexplain: checkpoint on exit:", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := sys.Close(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "elsexplain: close:", err)
			}
		}()
	}
	sys.SetLimits(limits)
	// The built-in Section 8 defaults only apply when there is nothing
	// else: explicit -table flags win, and so does a recovered durable
	// catalog that already holds tables.
	if len(tables) == 0 && len(sys.Tables()) == 0 {
		tables = []string{
			"S:1000:s=1000", "M:10000:m=10000", "B:50000:b=50000", "G:100000:g=100000",
		}
	}
	for _, spec := range tables {
		name, card, cols, err := parseTableSpec(spec)
		if err != nil {
			return err
		}
		if err := sys.DeclareStats(name, card, cols); err != nil {
			return err
		}
	}
	algos := els.Algorithms()
	if algoName != "" {
		var found bool
		for _, a := range algos {
			if strings.EqualFold(a.String(), algoName) {
				algos = []els.Algorithm{a}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown algorithm %q (use one of %v)", algoName, els.Algorithms())
		}
	}
	for _, a := range algos {
		out, err := sys.Explain(sql, a)
		if err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
		fmt.Printf("===== %s =====\n%s\n", a, out)
	}
	return nil
}

// parseTableSpec parses "name:card:col=d,col=d".
func parseTableSpec(spec string) (string, float64, map[string]float64, error) {
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) < 2 {
		return "", 0, nil, fmt.Errorf("bad table spec %q (want name:card[:col=d,...])", spec)
	}
	card, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return "", 0, nil, fmt.Errorf("bad cardinality in %q: %v", spec, err)
	}
	cols := map[string]float64{}
	if len(parts) == 3 && strings.TrimSpace(parts[2]) != "" {
		for _, kv := range strings.Split(parts[2], ",") {
			eq := strings.SplitN(kv, "=", 2)
			if len(eq) != 2 {
				return "", 0, nil, fmt.Errorf("bad column spec %q in %q", kv, spec)
			}
			d, err := strconv.ParseFloat(strings.TrimSpace(eq[1]), 64)
			if err != nil {
				return "", 0, nil, fmt.Errorf("bad distinct count %q in %q: %v", eq[1], spec, err)
			}
			cols[strings.TrimSpace(eq[0])] = d
		}
	}
	return strings.TrimSpace(parts[0]), card, cols, nil
}
