package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	els "repro"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workpool"
)

// Verdict is the part every scenario report shares: the contract breaches
// the run's audits found.
type Verdict struct {
	// Violations lists every contract breach. A clean run has none.
	Violations []string
}

// Failed reports whether the run breached any contract.
func (v *Verdict) Failed() bool { return len(v.Violations) > 0 }

// sentinel names one public error sentinel for classification.
type sentinel struct {
	name string
	err  error
}

// inProcessSet is the taxonomy of the in-process storms (Run,
// RunCacheSoak): every error a System call returns must match one.
var inProcessSet = []sentinel{
	{"canceled", els.ErrCanceled},
	{"budget", els.ErrBudgetExceeded},
	{"bad-stats", els.ErrBadStats},
	{"parse", els.ErrParse},
	{"overloaded", els.ErrOverloaded},
	{"closed", els.ErrClosed},
	{"internal", els.ErrInternal},
}

// wireSet extends the in-process taxonomy with the wire-layer and
// tenant-routing sentinels: every error a wire client observes in RunServer
// must match one.
var wireSet = append([]sentinel{
	{"tenant", els.ErrTenant},
	{"bad-wire", els.ErrBadWire},
	{"stale-replica", els.ErrStaleReplica},
	{"diverged", els.ErrDiverged},
	{"durability", els.ErrDurability},
}, inProcessSet...)

// unclassified is the class of an error outside a scenario's taxonomy.
const unclassified = "UNCLASSIFIED"

// classify returns err's class in set: "ok" for nil, else the name of the
// first sentinel err matches, else unclassified.
func classify(set []sentinel, err error) string {
	if err == nil {
		return "ok"
	}
	for _, s := range set {
		if errors.Is(err, s.err) {
			return s.name
		}
	}
	return unclassified
}

// observation is one (pinned version, estimate) data point to audit.
type observation struct {
	version uint64
	size    float64
}

// kernel is the scaffolding every scenario runs on: the seeded event log,
// the violation recorder, the error classifier, the published-version
// ledger behind the torn-read audits, and the shared end-of-run audits.
// Scenarios embed it and guard their own shared state with its mu, which
// they must not hold while calling a kernel method.
type kernel struct {
	scenario string
	seed     int64
	logW     io.Writer
	set      []sentinel // the taxonomy record classifies against

	//lockorder:level 5
	mu          sync.Mutex
	violations  []string
	ops         int
	succeeded   int
	errsByClass map[string]int
	published   map[string]map[uint64]float64 // tenant ("" in-process) -> version -> card
	observed    map[string][]observation      // tenant -> estimates to audit

	// logMu sits above server.Server.logMu (70); see logWriter.
	//lockorder:level 75
	logMu sync.Mutex
}

func newKernel(scenario string, seed int64, logW io.Writer, set []sentinel) *kernel {
	return &kernel{
		scenario:    scenario,
		seed:        seed,
		logW:        logW,
		set:         set,
		errsByClass: make(map[string]int),
		published:   make(map[string]map[uint64]float64),
		observed:    make(map[string][]observation),
	}
}

// event writes one JSONL record named name, with the key/value pairs kv,
// to the event log. Every line is stamped with the scenario and seed, so
// several runs can append to one log and stay apart.
func (k *kernel) event(name string, kv ...any) {
	if k.logW == nil {
		return
	}
	doc := make(map[string]any, len(kv)/2+3)
	for i := 0; i+1 < len(kv); i += 2 {
		doc[fmt.Sprint(kv[i])] = kv[i+1]
	}
	k.write(name, doc)
}

func (k *kernel) write(name string, doc map[string]any) {
	doc["event"], doc["scenario"], doc["seed"] = name, k.scenario, k.seed
	b, err := json.Marshal(doc)
	if err != nil {
		return
	}
	k.logMu.Lock()
	defer k.logMu.Unlock()
	k.logW.Write(append(b, '\n'))
}

// stamped lets a component that writes its own JSON lines, one per Write
// (the wire server's LogW), share the event log: each line is re-stamped
// with the scenario and seed.
type stamped struct{ k *kernel }

func (s stamped) Write(p []byte) (int, error) {
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(p))
	dec.UseNumber()
	name := "unparsed"
	if dec.Decode(&doc) == nil && doc != nil {
		name, _ = doc["event"].(string)
	} else {
		doc = map[string]any{"line": string(p)}
	}
	s.k.write(name, doc)
	return len(p), nil
}

// logWriter returns the event log for a component's own LogW, or nil when
// the run has no log. The wire server writes to it while holding its own
// log lock, an ordering static call resolution cannot see, hence the
// declared edge.
//
//lockorder:edge repro/internal/server.Server.logMu repro/internal/chaos.kernel.logMu
func (k *kernel) logWriter() io.Writer {
	if k.logW == nil {
		return nil
	}
	return stamped{k}
}

// violation records one contract breach and logs it as an event.
func (k *kernel) violation(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	k.mu.Lock()
	k.violations = append(k.violations, msg)
	k.mu.Unlock()
	k.event("violation", "msg", msg)
}

// verdict returns the breaches recorded so far.
func (k *kernel) verdict() Verdict {
	k.mu.Lock()
	defer k.mu.Unlock()
	return Verdict{Violations: k.violations}
}

// record tallies one operation outcome by actor by, classified against the
// scenario's taxonomy; an error outside it is a contract violation.
func (k *kernel) record(by, op string, err error) {
	class := classify(k.set, err)
	k.mu.Lock()
	k.ops++
	if err == nil {
		k.succeeded++
	} else {
		k.errsByClass[class]++
	}
	k.mu.Unlock()
	if class == unclassified {
		k.violation("%s %s: error outside the taxonomy: %v", by, op, err)
	}
	k.event("op", "by", by, "op", op, "class", class)
}

// fleet is a group of scenario goroutines run under workpool.Go: a panic
// in any of them is recovered and recorded as a violation instead of
// crashing the run.
type fleet struct {
	k      *kernel
	label  string
	onFail func() // optional; runs after a failure is recorded
	wg     sync.WaitGroup
}

func (k *kernel) fleet(label string) *fleet { return &fleet{k: k, label: label} }

// Go runs fn on a new fleet goroutine.
func (f *fleet) Go(fn func()) {
	workpool.Go(&f.wg, func(err error) {
		f.k.violation("%s: goroutine failed: %v", f.label, err)
		if f.onFail != nil {
			f.onFail()
		}
	}, func() error { fn(); return nil })
}

// Wait blocks until every fleet goroutine has returned.
func (f *fleet) Wait() { f.wg.Wait() }

// pause waits d or until done closes, whichever comes first; scenarios
// pass their stop channel or ctx.Done().
func pause(done <-chan struct{}, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}

// dial opens a wire client whose calls time out after opTimeout, recording
// a violation (and returning nil) on failure.
func (k *kernel) dial(ctx context.Context, addr string, opTimeout time.Duration) *wire.Client {
	cl, err := wire.Dial(ctx, addr)
	if err != nil {
		k.violation("chaos: dial %s failed: %v", addr, err)
		return nil
	}
	cl.OpTimeout = opTimeout
	return cl
}

// redial replaces a broken client.
func (k *kernel) redial(ctx context.Context, addr string, old *wire.Client, opTimeout time.Duration) *wire.Client {
	old.Close()
	return k.dial(ctx, addr, opTimeout)
}

// session runs step ops times over one wire client, replacing the client
// after any call that broke it or whenever step asks for a fresh one; a
// failed (re)dial ends the session.
func (k *kernel) session(ctx context.Context, addr string, opTimeout time.Duration, ops int, step func(cl *wire.Client, i int) (redial bool)) {
	cl := k.dial(ctx, addr, opTimeout)
	for i := 0; i < ops && cl != nil; i++ {
		if step(cl, i) || cl.Broken() {
			cl = k.redial(ctx, addr, cl, opTimeout)
		}
	}
	if cl != nil {
		cl.Close()
	}
}

// auditShed reports whether err is a wire overload shed, recording a
// violation unless the shed is flagged retryable and carries a
// Retry-After hint.
func (k *kernel) auditShed(what string, err error) bool {
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || !errors.Is(err, els.ErrOverloaded) {
		return false
	}
	if !remote.Wire.Retryable {
		k.violation("%s shed not flagged retryable", what)
	}
	if remote.RetryAfter() <= 0 {
		k.violation("%s shed carries no Retry-After hint", what)
	}
	return true
}

// publish enters one acknowledged catalog version and the cardinality it
// published for tenant ("" in-process) into the ledger.
func (k *kernel) publish(tenant string, version uint64, card float64) {
	k.mu.Lock()
	if k.published[tenant] == nil {
		k.published[tenant] = make(map[uint64]float64)
	}
	k.published[tenant][version] = card
	k.mu.Unlock()
	k.event("publish", "tenant", tenant, "version", version, "card", card)
}

// observe enters one estimate and the catalog version it pinned.
func (k *kernel) observe(tenant string, version uint64, size float64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.observed[tenant] = append(k.observed[tenant], observation{version, size})
}

// ledger returns how many versions were published and estimates observed.
func (k *kernel) ledger() (versions, observations int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, p := range k.published {
		versions += len(p)
	}
	for _, o := range k.observed {
		observations += len(o)
	}
	return versions, observations
}

// auditTornReads checks every observed estimate against the cardinality
// its pinned version published: any other value is a torn read. An
// unpublished version is a violation when strict; otherwise (a wire ack
// can be lost to a torn transport while the server still published) it is
// logged. check, if non-nil, audits each observation further and returns
// a breach message or "".
func (k *kernel) auditTornReads(strict bool, check func(tenant string, size float64) string) {
	type entry struct {
		tenant    string
		obs       observation
		card      float64
		published bool
	}
	var entries []entry
	k.mu.Lock()
	for tenant, obs := range k.observed {
		for _, o := range obs {
			card, ok := k.published[tenant][o.version]
			entries = append(entries, entry{tenant, o, card, ok})
		}
	}
	k.mu.Unlock()
	for _, e := range entries {
		where := ""
		if e.tenant != "" {
			where = " in " + e.tenant
		}
		switch {
		case !e.published && strict:
			k.violation("estimate%s pinned catalog version %d, which was never published", where, e.obs.version)
		case !e.published:
			k.event("unmatched_version", "tenant", e.tenant, "version", e.obs.version)
		case e.obs.size != e.card:
			k.violation("torn read%s: estimate %g under catalog version %d, which published card %g",
				where, e.obs.size, e.obs.version, e.card)
		}
		if check != nil {
			if msg := check(e.tenant, e.obs.size); msg != "" {
				k.violation("%s", msg)
			}
		}
	}
}

// auditSlots records admission slots still held or waited on after a drain.
func (k *kernel) auditSlots(who string, inFlight, waiting int) {
	if inFlight != 0 || waiting != 0 {
		k.violation("slot leak in %s after drain: in-flight %d, waiting %d", who, inFlight, waiting)
	}
}

// auditDrained checks a drained wire server: no connection, no tenant
// admission slot, and no *.spill file under dataRoot survives. It returns
// the leaked spill files.
func (k *kernel) auditDrained(srv *server.Server, dataRoot string) []string {
	st := srv.Stats()
	if st.ActiveConns != 0 {
		k.violation("connection leak: %d conns survive the drain", st.ActiveConns)
	}
	for _, ts := range st.Tenants {
		k.auditSlots(ts.Tenant, ts.InFlight, ts.Waiting)
	}
	var spills []string
	filepath.WalkDir(dataRoot, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, durable.SpillSuffix) {
			spills = append(spills, path)
			k.violation("leaked spill file after drain: %s", path)
		}
		return nil
	})
	return spills
}

// digester is anything with a catalog identity: a System, a Replica, or a
// tenant read over the wire.
type digester interface {
	CatalogDigest() (uint64, string, error)
}

// digest returns src's catalog version and digest, recording a violation
// named by what (and ok=false) when it cannot be computed.
func (k *kernel) digest(what string, src digester) (version uint64, digest string, ok bool) {
	version, digest, err := src.CatalogDigest()
	if err != nil {
		k.violation("%s digest failed: %v", what, err)
		return 0, "", false
	}
	return version, digest, true
}

// drain closes c with a bounded deadline.
func drain(c interface{ Close(context.Context) error }) error {
	//ctxflow:allow end-of-run drain runs after every caller context is gone
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return c.Close(ctx)
}

// rows builds n two-column rows: the first cycles through dom values, the
// second through 7.
func rows(n, dom int) [][]int64 {
	out := make([][]int64, n)
	for i := range out {
		out[i] = []int64{int64(i % dom), int64(i % 7)}
	}
	return out
}
