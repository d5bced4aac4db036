package chaos

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	els "repro"
)

// TestEventLogConcurrentWriters has scenario goroutines and a server-style
// component (writing its own JSON lines through logWriter) share one log:
// every line must be one whole JSON object carrying event, scenario, and
// seed.
func TestEventLogConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	k := newKernel("unit", 9, &buf, inProcessSet)
	const writers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k.event("op", "worker", w, "i", i, "msg", strings.Repeat("x", i%50))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				fmt.Fprintf(k.logWriter(), "{\"event\":\"listening\",\"elapsed_ms\":%d}\n", i)
			}
		}()
	}
	wg.Wait()

	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
		var doc map[string]any
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("line %d is not one JSON object: %v: %q", lines, err, sc.Text())
		}
		if doc["event"] == nil || doc["event"] == "" || doc["scenario"] != "unit" || doc["seed"] != float64(9) {
			t.Fatalf("line %d lacks its event/scenario/seed stamp: %q", lines, sc.Text())
		}
	}
	if want := 2 * writers * each; lines != want {
		t.Fatalf("got %d lines, want %d", lines, want)
	}
}

// TestEventLogOff pins that a kernel without a log writer hands components
// a nil LogW (not a typed-nil writer) and still records violations.
func TestEventLogOff(t *testing.T) {
	k := newKernel("unit", 1, nil, nil)
	if w := k.logWriter(); w != nil {
		t.Fatalf("logWriter() = %#v, want nil", w)
	}
	k.violation("breach %d", 1)
	if v := k.verdict(); !v.Failed() || v.Violations[0] != "breach 1" {
		t.Fatalf("verdict = %+v", v)
	}
}

// TestClassifierKeepsScenarioSet checks classification against each
// scenario's own sentinel set: a tenant error is part of the wire set but
// is unclassified — and a violation — in the in-process storm.
func TestClassifierKeepsScenarioSet(t *testing.T) {
	wrapped := fmt.Errorf("%w: quarantined", els.ErrTenant)
	if got := classify(inProcessSet, wrapped); got != unclassified {
		t.Errorf("in-process class of ErrTenant = %q, want %q", got, unclassified)
	}
	if got := classify(wireSet, wrapped); got != "tenant" {
		t.Errorf("wire class of ErrTenant = %q, want tenant", got)
	}
	if got := classify(inProcessSet, fmt.Errorf("x: %w", els.ErrOverloaded)); got != "overloaded" {
		t.Errorf("class of wrapped ErrOverloaded = %q, want overloaded", got)
	}
	if got := classify(inProcessSet, nil); got != "ok" {
		t.Errorf("class of nil = %q, want ok", got)
	}

	var buf bytes.Buffer
	k := newKernel("soak", 3, &buf, inProcessSet)
	k.record("worker 0", "estimate", nil)
	k.record("worker 1", "query", wrapped)
	if k.ops != 2 || k.succeeded != 1 || k.errsByClass[unclassified] != 1 {
		t.Errorf("tally ops=%d succeeded=%d classes=%v", k.ops, k.succeeded, k.errsByClass)
	}
	v := k.verdict()
	if len(v.Violations) != 1 || !strings.Contains(v.Violations[0], "worker 1 query: error outside the taxonomy") {
		t.Errorf("violations = %q, want one taxonomy breach", v.Violations)
	}
	if !strings.Contains(buf.String(), `"event":"violation"`) {
		t.Errorf("the violation was not logged as an event:\n%s", buf.String())
	}
}

// TestFleetPanicIsViolation checks that a panicking fleet goroutine is
// recovered into a violation, runs the fleet's onFail hook, and leaves its
// siblings to finish.
func TestFleetPanicIsViolation(t *testing.T) {
	k := newKernel("unit", 1, nil, nil)
	f := k.fleet("round 4")
	failed := 0
	f.onFail = func() { failed++ }
	done := make([]bool, 3)
	for i := range done {
		f.Go(func() {
			if i == 1 {
				panic("boom")
			}
			done[i] = true
		})
	}
	f.Wait()
	if !done[0] || !done[2] {
		t.Errorf("sibling goroutines did not finish: %v", done)
	}
	if failed != 1 {
		t.Errorf("onFail ran %d times, want 1", failed)
	}
	v := k.verdict()
	if len(v.Violations) != 1 || !strings.HasPrefix(v.Violations[0], "round 4: goroutine failed:") ||
		!strings.Contains(v.Violations[0], "boom") {
		t.Errorf("violations = %q, want one recovered panic", v.Violations)
	}
}

// TestTornReadAudit checks the shared ledger: a strict audit flags an
// unpublished version and a mismatched estimate; a lenient one only logs
// the unpublished version, and the extra check sees every observation.
func TestTornReadAudit(t *testing.T) {
	for _, strict := range []bool{true, false} {
		k := newKernel("unit", 1, nil, nil)
		k.publish("t", 1, 100)
		k.observe("t", 1, 100) // consistent
		k.observe("t", 1, 101) // torn
		k.observe("t", 7, 100) // never published
		checked := 0
		k.auditTornReads(strict, func(string, float64) string { checked++; return "" })
		want := 1
		if strict {
			want = 2
		}
		if v := k.verdict(); len(v.Violations) != want {
			t.Errorf("strict=%v: violations %q, want %d", strict, v.Violations, want)
		}
		if checked != 3 {
			t.Errorf("strict=%v: extra check saw %d observations, want 3", strict, checked)
		}
		if versions, obs := k.ledger(); versions != 1 || obs != 3 {
			t.Errorf("ledger = %d versions, %d observations", versions, obs)
		}
	}
}
