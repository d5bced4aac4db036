package chaos

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	els "repro"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workpool"
)

// ServerConfig shapes one network chaos storm against a live multi-tenant
// wire server. The zero value (plus a DataRoot) is a CI-sized run.
type ServerConfig struct {
	// Seed drives every random decision in the fleet.
	Seed int64
	// DataRoot is the durable tenant root (a test temp dir); every tenant
	// recovered from it after the mid-storm restart must digest-match its
	// pre-drain identity.
	DataRoot string
	// Tenants is the number of hosted tenants (default 3; minimum 2, so
	// the isolation audits have a neighbor to check).
	Tenants int
	// WorkersPerTenant is the per-tenant client swarm size (default 4).
	WorkersPerTenant int
	// OpsPerWorker is how many operations each swarm client issues
	// (default 30).
	OpsPerWorker int
	// LogW, if non-nil, receives one JSON line per event — the artifact CI
	// attaches to a server-smoke run.
	LogW io.Writer
}

// ServerReport is the audited outcome of a server storm.
type ServerReport struct {
	Verdict
	// Ops counts client operations issued; Succeeded the ones that
	// returned no error.
	Ops, Succeeded int
	// ErrorsByClass histograms client-observed failures by taxonomy
	// sentinel name.
	ErrorsByClass map[string]int
	// Observations counts version-consistency data points audited.
	Observations int
	// PoisonedTenant is the tenant the storm quarantined by injected
	// panics.
	PoisonedTenant string
	// DrainMillis is the graceful drain's duration.
	DrainMillis float64
	// Digests maps tenant -> "version:digest" identity recovered after
	// the restart (audited equal to the pre-drain identity).
	Digests map[string]string
}

// tenantCardBase spaces each tenant's published cardinalities a million
// apart, so an estimate served from the wrong tenant's catalog lands in
// an unmistakably foreign band — the cross-tenant interference detector.
func tenantCardBase(i int) float64 { return float64(i+1) * 1_000_000 }

func tenantName(i int) string { return fmt.Sprintf("tenant%d", i) }

// serverOpTimeout bounds each swarm client's wire call.
const serverOpTimeout = 5 * time.Second

// serverHarness carries the storm's state; the kernel's ledger holds each
// tenant's acknowledged versions and estimate probes.
type serverHarness struct {
	*kernel
	cfg ServerConfig
}

// RunServer drives the network chaos fleet end to end: N durable tenants
// behind one wire server, per-tenant client swarms issuing estimates,
// executed queries, mutations, deadline-bounded calls, and overload
// floods while saboteur clients tear frames, send garbage, stall, and
// vanish mid-request; one tenant is poisoned into quarantine by injected
// panics; the server then drains gracefully mid-traffic and restarts over
// the same data root. The audits:
//
//   - isolation: every estimate's cardinality lands in the band its
//     tenant published (no cross-tenant reads), and a quarantined tenant's
//     neighbors keep serving;
//   - taxonomy: every client-observed failure matches a public sentinel;
//   - no leaks: after the drain, every tenant is at zero in-flight and
//     zero waiting, the server holds zero connections, and no *.spill
//     file survives under the data root;
//   - durability: every tenant's recovered catalog identity
//     (version:digest) equals its pre-drain identity — no acknowledged
//     mutation was lost.
//
// The returned error reports a harness malfunction; contract breaches
// land in ServerReport.Violations.
func RunServer(ctx context.Context, cfg ServerConfig) (*ServerReport, error) {
	if cfg.Tenants < 2 {
		cfg.Tenants = 3
	}
	if cfg.WorkersPerTenant <= 0 {
		cfg.WorkersPerTenant = 4
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 30
	}
	if cfg.DataRoot == "" {
		return nil, fmt.Errorf("chaos: RunServer needs a DataRoot")
	}
	h := &serverHarness{kernel: newKernel("server", cfg.Seed, cfg.LogW, wireSet), cfg: cfg}
	report := &ServerReport{Digests: make(map[string]string)}

	srv, err := server.Start(ctx, h.serverConfig())
	if err != nil {
		return nil, fmt.Errorf("chaos: starting server: %w", err)
	}
	addr := srv.Addr()
	// Each tenant's bootstrap-published identity, so the very first
	// estimate probes have a version to audit against.
	for i := 0; i < cfg.Tenants; i++ {
		h.publish(tenantName(i), srv.System(tenantName(i)).CatalogVersion(), tenantCardBase(i))
	}

	// Phase 1: the storm — swarms, saboteurs, overload.
	h.event("storm_start", "addr", addr, "tenants", cfg.Tenants)
	swarm := h.fleet("chaos: server swarm")
	for ti := 0; ti < cfg.Tenants; ti++ {
		swarm.Go(func() { h.mutatorClient(ctx, addr, ti) })
		for w := 1; w < cfg.WorkersPerTenant; w++ {
			swarm.Go(func() { h.readerClient(ctx, addr, ti, w) })
		}
	}
	swarm.Go(func() { h.saboteur(ctx, addr) })
	swarm.Wait()

	// Phase 1b: overload flood — a one-shot client burst far past the
	// 2-slot, 2-deep admission budget; the sheds must be typed, marked
	// retryable, and carry a Retry-After hint.
	h.flood(ctx, addr)

	// Phase 2: poison the last tenant into quarantine; its neighbors must
	// not notice.
	poisoned := tenantName(cfg.Tenants - 1)
	report.PoisonedTenant = poisoned
	h.poison(ctx, addr, poisoned)
	h.auditIsolation(ctx, addr, poisoned)

	// Phase 3: pre-drain identity. The quarantined tenant's wire path
	// fails fast by design, so its digest is read in-process — quarantine
	// is server-level health state, the System under it is intact.
	preDigests := make(map[string]string)
	for i := 0; i < cfg.Tenants; i++ {
		name := tenantName(i)
		if v, d, ok := h.digest("pre-drain "+name, srv.System(name)); ok {
			preDigests[name] = fmt.Sprintf("%d:%s", v, d)
		}
	}

	// Phase 4: graceful drain under live traffic. Stalled requests
	// started before the drain must finish; a request landing mid-drain
	// must be refused with a typed draining error carrying a Retry-After
	// hint. Nothing may survive it.
	h.auditDrain(ctx, addr, srv, report)
	h.auditDrained(srv, cfg.DataRoot)

	// Phase 5: restart over the same data root; every tenant — including
	// the formerly quarantined one, whose poison was process state — must
	// recover its exact pre-drain identity, over the wire.
	srv2, err := server.Start(ctx, h.serverConfig())
	if err != nil {
		return nil, fmt.Errorf("chaos: restarting server: %w", err)
	}
	if cl := h.dial(ctx, srv2.Addr(), serverOpTimeout); cl != nil {
		for i := 0; i < cfg.Tenants; i++ {
			name := tenantName(i)
			v, d, ok := h.digest("post-restart "+name, wireTenant{ctx, cl, name})
			if !ok {
				continue
			}
			id := fmt.Sprintf("%d:%s", v, d)
			report.Digests[name] = id
			if pre, ok := preDigests[name]; ok && pre != id {
				h.violation("tenant %s lost acknowledged state across restart: pre-drain %s, recovered %s",
					name, pre, id)
			}
		}
		cl.Close()
	}
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv2.Shutdown(drainCtx); err != nil {
		h.violation("restarted server did not drain cleanly: %v", err)
	}

	// Every estimate probe must match the exact cardinality its tenant
	// published for the pinned version, inside its tenant's band.
	h.auditTornReads(false, func(tenant string, size float64) string {
		var base float64
		for i := 0; i < cfg.Tenants; i++ {
			if tenantName(i) == tenant {
				base = tenantCardBase(i)
			}
		}
		if size < base || size >= base+1_000_000 {
			return fmt.Sprintf("cross-tenant read: %s estimate %g is outside its band [%g, %g)",
				tenant, size, base, base+1_000_000)
		}
		return ""
	})
	report.Verdict = h.verdict()
	_, report.Observations = h.ledger()
	h.mu.Lock()
	report.Ops, report.Succeeded, report.ErrorsByClass = h.ops, h.succeeded, h.errsByClass
	h.mu.Unlock()
	return report, nil
}

// wireTenant reads one tenant's catalog identity over the wire.
type wireTenant struct {
	ctx  context.Context
	cl   *wire.Client
	name string
}

func (w wireTenant) CatalogDigest() (uint64, string, error) {
	resp, err := w.cl.Do(w.ctx, &wire.Request{Op: wire.OpDigest, Tenant: w.name})
	if err != nil {
		return 0, "", err
	}
	return resp.Version, resp.Digest, nil
}

// serverConfig builds the (restart-stable) server configuration: small
// admission budgets keep the queues contended, a low poison threshold
// keeps the quarantine reachable, and fault ops are enabled for the
// tenant-targeted injections.
func (h *serverHarness) serverConfig() server.Config {
	cfg := server.Config{
		Addr:            "127.0.0.1:0",
		DataRoot:        h.cfg.DataRoot,
		IdleTimeout:     5 * time.Second,
		WriteTimeout:    2 * time.Second,
		PoisonThreshold: 3,
		EnableFaultOps:  true,
		LogW:            h.logWriter(),
	}
	for i := 0; i < h.cfg.Tenants; i++ {
		i := i
		cfg.Tenants = append(cfg.Tenants, server.TenantConfig{
			Name: tenantName(i),
			Limits: els.Limits{
				Timeout:       2 * time.Second,
				MaxConcurrent: 2,
				MaxQueue:      2,
				QueueTimeout:  30 * time.Millisecond,
				Workers:       2,
			},
			Bootstrap: func(sys *els.System) error {
				if err := sys.LoadTable("R", []string{"a", "b"}, rows(100, 10)); err != nil {
					return err
				}
				if err := sys.LoadTable("S", []string{"a", "c"}, rows(150, 10)); err != nil {
					return err
				}
				return sys.DeclareStats("V", tenantCardBase(i), map[string]float64{"x": 10})
			},
		})
	}
	return cfg
}

// mutatorClient is tenant ti's single mutating client: it republishes V's
// statistics with a version-correlated, tenant-banded cardinality. One
// mutator per tenant means the version a declare acknowledgement reports
// is exactly the version that declare published.
func (h *serverHarness) mutatorClient(ctx context.Context, addr string, ti int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 1000 + int64(ti)))
	name := tenantName(ti)
	h.session(ctx, addr, serverOpTimeout, h.cfg.OpsPerWorker, func(cl *wire.Client, i int) bool {
		card := tenantCardBase(ti) + float64(i+1)
		resp, err := cl.Do(ctx, &wire.Request{
			Op: wire.OpDeclare, Tenant: name, Table: "V", Rows: card,
			Distinct: map[string]float64{"x": 10},
		})
		h.record(name, "declare", err)
		if err != nil {
			// A shed or torn declare is unacknowledged: nothing to publish,
			// and the durability audit must not expect it. Start afresh on
			// a new connection.
			return true
		}
		h.publish(name, resp.Version, card)
		pause(ctx.Done(), time.Duration(rng.Intn(2)+1)*time.Millisecond)
		return false
	})
}

// readerClient is one swarm client: estimates (audited for isolation),
// executed queries, explains, deadline-bounded calls, and stall faults,
// with no pacing — the swarm outnumbers the 2-slot admission budget, so
// overload sheds are part of the storm's diet.
func (h *serverHarness) readerClient(ctx context.Context, addr string, ti, w int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + int64(ti)*100 + int64(w)))
	name := tenantName(ti)
	h.session(ctx, addr, serverOpTimeout, h.cfg.OpsPerWorker, func(cl *wire.Client, _ int) bool {
		var err error
		var op string
		switch rng.Intn(6) {
		case 0:
			op = "estimate-v"
			var resp *wire.Response
			resp, err = cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: name, SQL: versionProbeSQL})
			if err == nil {
				h.observe(name, resp.Estimate.CatalogVersion, resp.Estimate.FinalSize)
			}
		case 1:
			op = "query"
			_, err = cl.Do(ctx, &wire.Request{Op: wire.OpQuery, Tenant: name,
				SQL: stormSQL[rng.Intn(len(stormSQL))]})
		case 2:
			op = "explain"
			_, err = cl.Do(ctx, &wire.Request{Op: wire.OpExplain, Tenant: name,
				SQL: stormSQL[rng.Intn(len(stormSQL))]})
		case 3:
			op = "estimate-deadline"
			dctx, cancel := context.WithTimeout(ctx, time.Duration(rng.Intn(5)+1)*time.Millisecond)
			_, err = cl.Do(dctx, &wire.Request{Op: wire.OpEstimate, Tenant: name,
				SQL: stormSQL[rng.Intn(len(stormSQL))]})
			cancel()
		case 4:
			op = "stall"
			_, err = cl.Do(ctx, &wire.Request{Op: wire.OpFault, Tenant: name,
				Fault: "stall", StallMillis: int64(rng.Intn(5) + 1)})
		case 5:
			op = "parse-error"
			_, err = cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: name, SQL: "SELEKT nonsense"})
			if err != nil && errors.Is(err, els.ErrParse) {
				err = nil // the expected typed outcome
			}
		}
		h.record(name, op, err)
		return false
	})
}

// saboteur attacks the wire itself: garbage frames, corrupted checksums,
// truncated headers, and mid-request hangups. None of it may wedge the
// server or leak a connection; well-framed garbage must come back as a
// typed bad-wire error.
func (h *serverHarness) saboteur(ctx context.Context, addr string) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 7))
	var d net.Dialer
	for i := 0; i < 4*h.cfg.Tenants; i++ {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			h.violation("saboteur dial failed: %v", err)
			return
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		kind := ""
		switch rng.Intn(4) {
		case 0:
			kind = "garbage"
			// A syntactically valid frame holding non-JSON: the server
			// must answer typed and keep the connection.
			payload := []byte("this is not json")
			if werr := wire.WriteFrame(conn, payload); werr == nil {
				if raw, rerr := wire.ReadFrame(conn, 0); rerr == nil {
					if resp, derr := wire.DecodeResponse(raw); derr != nil || resp.Err == nil ||
						wire.Sentinel(resp.Err.Code) == nil {
						h.violation("garbage payload did not yield a typed wire error")
					}
				} else {
					h.violation("garbage payload: no typed reply: %v", rerr)
				}
			}
		case 1:
			kind = "bad-crc"
			// A corrupted checksum: the server counts a bad frame and
			// hangs up (the stream past it is unframed).
			payload := []byte(`{"op":"ping"}`)
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[4:8], 0xDEADBEEF)
			conn.Write(hdr[:])
			conn.Write(payload)
			io.ReadAll(conn) // observe the hangup (reply is best-effort)
		case 2:
			kind = "truncated"
			// Half a header, then vanish.
			conn.Write([]byte{0x10, 0x00})
		case 3:
			kind = "vanish"
			// A valid request, then hang up before reading the response.
			if payload, eerr := wire.EncodeRequest(&wire.Request{ID: 1, Op: wire.OpPing}); eerr == nil {
				wire.WriteFrame(conn, payload)
			}
		}
		conn.Close()
		h.event("sabotage", "kind", kind)
	}
}

// flood slams one tenant with concurrent one-shot clients far beyond its
// admission budget. Sheds are the expected diet; each must be typed
// overloaded, flagged retryable, and carry the queue-timeout-derived
// Retry-After hint.
func (h *serverHarness) flood(ctx context.Context, addr string) {
	name := tenantName(0)
	const clients, opsEach = 12, 15
	burst := h.fleet("chaos: flood")
	sheds := 0
	for c := 0; c < clients; c++ {
		burst.Go(func() {
			cl := h.dial(ctx, addr, serverOpTimeout)
			if cl == nil {
				return
			}
			defer cl.Close()
			for i := 0; i < opsEach; i++ {
				_, err := cl.Do(ctx, &wire.Request{Op: wire.OpQuery, Tenant: name, SQL: stormSQL[0]})
				h.record(name, "flood", err)
				if h.auditShed("overload", err) {
					h.mu.Lock()
					sheds++
					h.mu.Unlock()
				}
				if cl.Broken() {
					return
				}
			}
		})
	}
	burst.Wait()
	if sheds == 0 {
		h.violation("overload flood produced no shed — the admission bulkhead never engaged")
	}
	h.event("flood_done", "sheds", sheds)
}

// poison floods one tenant with injected panics until its bulkhead trips,
// then verifies the trip is sticky and typed.
func (h *serverHarness) poison(ctx context.Context, addr, name string) {
	cl := h.dial(ctx, addr, serverOpTimeout)
	if cl == nil {
		return
	}
	defer cl.Close()
	quarantined := false
	for i := 0; i < 10; i++ {
		_, err := cl.Do(ctx, &wire.Request{Op: wire.OpFault, Tenant: name, Fault: "panic"})
		if err == nil {
			h.violation("injected panic reported success")
			return
		}
		var remote *wire.RemoteError
		if errors.As(err, &remote) && remote.Wire.Quarantined {
			quarantined = true
			break
		}
		if !errors.Is(err, els.ErrInternal) {
			h.violation("injected panic surfaced as %v, want an internal error until the trip", err)
		}
		if cl.Broken() {
			cl = h.redial(ctx, addr, cl, serverOpTimeout)
			if cl == nil {
				return
			}
		}
	}
	if !quarantined {
		h.violation("tenant did not quarantine after repeated injected panics")
		return
	}
	h.event("poisoned", "tenant", name)
	// The quarantine must be sticky and typed: a healthy request now
	// fails fast with the tenant sentinel, marked not retryable.
	_, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: name, SQL: versionProbeSQL})
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || !errors.Is(err, els.ErrTenant) || !remote.Wire.Quarantined {
		h.violation("quarantined tenant answered %v, want a typed quarantine error", err)
	} else if remote.Wire.Retryable {
		h.violation("quarantine error claims to be retryable; the trip is sticky until restart")
	}
}

// auditIsolation verifies the poisoned tenant's neighbors still serve.
func (h *serverHarness) auditIsolation(ctx context.Context, addr, poisoned string) {
	cl := h.dial(ctx, addr, serverOpTimeout)
	if cl == nil {
		return
	}
	defer cl.Close()
	for i := 0; i < h.cfg.Tenants; i++ {
		name := tenantName(i)
		if name == poisoned {
			continue
		}
		resp, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: name, SQL: versionProbeSQL})
		if err != nil {
			h.violation("tenant %s failed (%v) while %s is quarantined: bulkhead breach",
				name, err, poisoned)
			continue
		}
		h.observe(name, resp.Estimate.CatalogVersion, resp.Estimate.FinalSize)
	}
}

// auditDrain exercises the graceful drain under live traffic.
func (h *serverHarness) auditDrain(ctx context.Context, addr string, srv *server.Server, report *ServerReport) {
	// A request stalled inside a healthy tenant when the drain starts: it
	// must complete (the drain waits for in-flight work).
	inflight := workpool.Async(func() error {
		cl := h.dial(ctx, addr, serverOpTimeout)
		if cl == nil {
			return fmt.Errorf("chaos: no client for the in-flight probe")
		}
		defer cl.Close()
		_, err := cl.Do(ctx, &wire.Request{Op: wire.OpFault, Tenant: tenantName(0),
			Fault: "stall", StallMillis: 300})
		return err
	})
	time.Sleep(50 * time.Millisecond) // let the stall reach the tenant

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	done := workpool.Async(func() error { return srv.Shutdown(drainCtx) })

	// A request landing mid-drain: typed draining error, Retry-After set.
	// The listener may already be down, in which case the refusal happens
	// at dial — an equally acceptable drain shape.
	time.Sleep(20 * time.Millisecond)
	if cl, derr := wire.Dial(ctx, addr); derr != nil {
		h.event("mid_drain_refused_at_dial")
	} else {
		cl.OpTimeout = 5 * time.Second
		_, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: tenantName(0), SQL: versionProbeSQL})
		var remote *wire.RemoteError
		switch {
		case err == nil:
			h.violation("request admitted mid-drain")
		case errors.As(err, &remote):
			if !errors.Is(err, els.ErrClosed) {
				h.violation("mid-drain request got %v, want the closed sentinel", err)
			}
			if remote.RetryAfter() <= 0 {
				h.violation("mid-drain shed carries no Retry-After hint")
			}
		default:
			// The accept gate may already be down; a connection-level
			// refusal (bad-wire locally) is an acceptable shape too.
			if !errors.Is(err, els.ErrBadWire) {
				h.violation("mid-drain request got %v, want a typed shed", err)
			}
		}
		cl.Close()
	}

	if err := <-inflight; err != nil {
		h.violation("in-flight request did not survive the drain: %v", err)
	}
	if err := <-done; err != nil {
		h.violation("drain failed: %v", err)
	}
	report.DrainMillis = srv.Stats().DrainMillis
	h.event("drained", "drain_ms", report.DrainMillis)
}
