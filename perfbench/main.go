// Command perfbench is the repository benchmark. It runs one named
// workload against the els library from a seed, checks every output it
// produces, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	perfbench --workload plan_mix --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the run first repeats the untraced measurement
// for half of --seconds, then spends the other half recording spans around
// the calls into each layer and reports the per-layer metrics derived from
// them (see trace.go and layers.go). Every workload reports the same
// metrics of each kind. The spans are kept in memory and written out when
// the run ends.
//
// The workloads are plan_mix (estimation with a plan cache smaller than the
// working set, beside durable statistics writes), section8 (the paper's
// Section 8 query executed at full scale in five legs) and serve (the wire
// server on loopback with two closed-loop clients). Each is described in
// its own file.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch root for durable directories and spill files
	spans    string // where the traced run writes its spans
	history  string // run history to append to; empty records nothing
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: the keys correct, attempted, failed and
// metrics, and nothing else.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are human-readable extras printed above the result line
	// (error_rate, counts, ratio bases); they are not metrics.
	notes []string
	// problems are failed output checks; any one makes the run incorrect.
	problems []string
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check. The run still finishes and prints
// its metrics, but reports correct=false and exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setErrorRate notes failed (errored or shed) operations over attempted
// ones. It is printed, not reported as a metric: the workloads are chosen
// so that no operation fails, and the result line carries the two counts.
func (r *report) setErrorRate() {
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	r.note("error_rate %.6f ratio (%d failed of %d attempted)", rate, r.Failed, r.Attempted)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *config, *report) error{
	"plan_mix": runPlanMix,
	"section8": runSection8,
	"serve":    runServe,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.work = work
	rep := newReport()
	err = workloads[cfg.workload](context.Background(), cfg, rep)
	if rmErr := os.RemoveAll(work); rmErr != nil && err == nil {
		err = fmt.Errorf("removing %s: %w", work, rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(1)
	}
	if cfg.history != "" {
		if err := appendHistory(cfg, rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	printReport(os.Stdout, rep)
	if !rep.Correct {
		for _, p := range rep.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		os.Exit(1)
	}
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: plan_mix, section8 or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "scratch directory root")
	fs.StringVar(&cfg.spans, "spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's spans")
	fs.StringVar(&cfg.history, "history", "", "append a run record to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want plan_mix, section8 or serve)", cfg.workload)
	}
	if cfg.seconds <= 0 || trace < 0 || trace > 1 {
		return nil, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// printReport prints every metric by name with its unit, then the notes,
// then the result line.
func printReport(f *os.File, r *report) {
	w := bufio.NewWriter(f)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-36s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	w.Write(line)
	w.WriteByte('\n')
	w.Flush()
}

// appendHistory appends one commit-stamped record of this run.
func appendHistory(cfg *config, r *report) error {
	rev, modified := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	rec := map[string]any{
		"time":         time.Now().UTC().Format(time.RFC3339),
		"vcs.revision": rev,
		"vcs.modified": modified,
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"goversion":    runtime.Version(),
		"correct":      r.Correct,
		"attempted":    r.Attempted,
		"failed":       r.Failed,
		"metrics":      r.Metrics,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding history record: %w", err)
	}
	f, err := os.OpenFile(cfg.history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening history: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending history: %w", err)
	}
	return f.Close()
}

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (0 for no samples). It sorts xs in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// window is the span over which plan_mix and serve compute a timing
// statistic before taking its median across windows (see series).
const window = 2 * time.Second

// series records one kind of operation's latencies (ms) window by window:
// it keeps only the current window's samples and, for each closed window,
// the sample count, median and 90th percentile, so its memory does not
// grow with the run (and does not show in peak_rss_mb). It is safe for
// concurrent use.
type series struct {
	start    time.Time
	mu       sync.Mutex
	cur      int
	buf      []float64
	n        []int
	p50, p90 []float64
	total    int
	span     time.Duration // the length of a window, or of the phase if shorter
}

func newSeries(start time.Time) *series { return &series{start: start, span: window} }

// add records a latency for an operation that completed now.
func (s *series) add(v float64) {
	w := int(time.Since(s.start) / window)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.cur < w {
		s.closeWindow()
	}
	s.buf = append(s.buf, v)
	s.total++
}

func (s *series) closeWindow() {
	s.n = append(s.n, len(s.buf))
	if len(s.buf) > 0 {
		s.p50 = append(s.p50, quantile(s.buf, 0.5))
		s.p90 = append(s.p90, quantile(s.buf, 0.9))
	}
	s.buf = s.buf[:0]
	s.cur++
}

// finish closes the windows of a phase that lasted elapsed. A trailing
// partial window is dropped unless it is the only one.
func (s *series) finish(elapsed time.Duration) {
	whole := int(elapsed / window)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.cur < whole {
		s.closeWindow()
	}
	if whole == 0 {
		s.closeWindow()
		s.span = elapsed
	}
}

// median50 and median90 are the medians over the windows of each window's
// quantile. A noisy spell on a shared machine then moves a metric only if
// it covers half the windows, where a quantile over the whole phase would
// take its tail from the spell alone.
//
// The tail reported is the 90th percentile, not the 99th: on a shared
// two-CPU machine the 99th percentiles of estimate and query latency are
// set by garbage-collection cycles and by neighbours' load, and over ten
// seeds their spread (quartile distance over median) reached 0.34 to 0.61,
// beyond the largest bound a metric may have (0.25).
func (s *series) median50() float64 { return quantile(s.p50, 0.5) }
func (s *series) median90() float64 { return quantile(s.p90, 0.5) }

// rate is the median over the windows of the operations completed per
// second.
func (s *series) rate() float64 {
	per := make([]float64, len(s.n))
	for i, n := range s.n {
		per[i] = float64(n) / s.span.Seconds()
	}
	return quantile(per, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setOpMetrics reports the end-to-end operation metrics every workload
// shares: throughput, and the median and 90th-percentile latency of one
// operation.
func setOpMetrics(r *report, opsPerS, p50, p90 float64) {
	r.set("ops_per_s", opsPerS, "1/s")
	r.set("op_p50_ms", p50, "ms")
	r.set("op_p90_ms", p90, "ms")
}

// setupRuns is how many times each workload builds its state; setup_s is
// the median, and the last build is the one measured.
const setupRuns = 5

// measureSetup runs build setupRuns times and, in an untraced run, reports
// the median duration as setup_s. Every build but the last is torn down
// (and collected, so the peak RSS reflects one live build) before the next
// starts.
func measureSetup[T any](cfg *config, r *report, build func() (T, error), teardown func(T) error) (T, error) {
	var cur T
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			if err := teardown(cur); err != nil {
				return cur, err
			}
			runtime.GC()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return cur, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		cur = v
	}
	if !cfg.trace {
		r.set("setup_s", quantile(times, 0.5), "s")
	}
	return cur, nil
}

// setPeakRSS reports peak_rss_mb, the process's peak resident set (VmHWM).
func setPeakRSS(r *report) error {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return fmt.Errorf("parsing VmHWM: %w", err)
			}
			r.set("peak_rss_mb", kb/1024, "MiB")
			return nil
		}
	}
	return errors.New("VmHWM missing from /proc/self/status")
}
