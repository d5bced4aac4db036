package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	els "repro"
	"repro/internal/cardest"
	"repro/internal/governor"
	"repro/internal/server"
	"repro/internal/wire"
)

// serve: an in-process wire server (server.Start) on loopback with one
// in-memory tenant, and two closed-loop wire clients — as many as the
// machine has CPUs, and closed loop because a database/sql caller blocks on
// each reply. Three in four operations are ELS estimates over a pool that
// fits the plan cache, warmed at set-up, so every timed estimate is a hit;
// the rest are COUNT(*) queries joining two or three small loaded tables.
// The tenant admits as many requests at once as there are clients, so
// admission runs on every request but never queues or sheds one; with a
// smaller cap the estimates' latency would measure waiting behind queries
// instead of the cached-estimate path.
//
// This is the only workload that crosses wire, server and admission. An
// operation is one request of either kind. Every estimate and count must
// equal the one an in-process reference system built from the same data
// computed at set-up, and the tenant's plan cache must record no miss in
// the timed window. The wire reply carries no executor figures, so the
// traced run takes them from running each query on the reference system.
const (
	svTenant     = "bench"
	svClients    = 2
	svDeclared   = 16
	svEstimates  = 40
	svQueryEvery = 4 // every fourth operation, on average, is a COUNT(*) query
)

var svLimits = els.Limits{MaxConcurrent: svClients}

// svLoaded are the loaded tables: name, rows, join-column domain.
var svLoaded = []struct {
	name   string
	rows   int
	domain int
}{{"l1", 200, 50}, {"l2", 300, 50}, {"l3", 400, 50}}

type svOp struct {
	op       string // wire.OpEstimate or wire.OpQuery
	sql      string
	estimate float64 // the reference answers (a query's plan estimate)
	count    int64
}

type serveBench struct {
	cfg *config
	ops []svOp // estimates first, then queries
	srv *server.Server
	ref *els.System // the reference system of the last set-up
}

// bootstrap declares the estimate tables and loads the query tables.
func (sb *serveBench) bootstrap(sys *els.System) error {
	rng := rand.New(rand.NewSource(sb.cfg.seed))
	for i := 0; i < svDeclared; i++ {
		card := math.Round(math.Pow(10, 2+3*rng.Float64()))
		cols := map[string]float64{}
		for c := 0; c < 3; c++ {
			cols[fmt.Sprintf("c%d", c)] = math.Max(2, math.Round(math.Pow(card, 0.4+0.6*rng.Float64())))
		}
		if err := sys.DeclareStats(fmt.Sprintf("d%02d", i), card, cols); err != nil {
			return err
		}
	}
	for i, t := range svLoaded {
		if err := sys.GenerateTable(t.name, "k", "uniform", t.rows, t.domain, 0, sb.cfg.seed+int64(i)+1); err != nil {
			return err
		}
	}
	return nil
}

// genOps draws the estimate and query pools (without answers).
func (sb *serveBench) genOps() {
	rng := rand.New(rand.NewSource(sb.cfg.seed + 7))
	seen := map[string]bool{}
	for len(sb.ops) < svEstimates {
		width := 2 + len(sb.ops)%4
		perm := rng.Perm(svDeclared)[:width]
		names := make([]string, width)
		for i, p := range perm {
			names[i] = fmt.Sprintf("d%02d", p)
		}
		var preds []string
		for i := 0; i+1 < width; i++ {
			preds = append(preds, fmt.Sprintf("%s.c%d = %s.c%d", names[i], rng.Intn(3), names[i+1], rng.Intn(3)))
		}
		sql := "SELECT COUNT(*) FROM " + strings.Join(names, ", ") + " WHERE " + strings.Join(preds, " AND ")
		if !seen[sql] {
			seen[sql] = true
			sb.ops = append(sb.ops, svOp{op: wire.OpEstimate, sql: sql})
		}
	}
	for _, cut := range []int{1 << 17, 1 << 18, 1 << 19, 1 << 20} {
		sb.ops = append(sb.ops,
			svOp{op: wire.OpQuery, sql: fmt.Sprintf("SELECT COUNT(*) FROM l1, l2 WHERE l1.k = l2.k AND l2.payload < %d", cut)},
			svOp{op: wire.OpQuery, sql: fmt.Sprintf("SELECT COUNT(*) FROM l1, l2, l3 WHERE l1.k = l2.k AND l2.k = l3.k AND l1.payload < %d AND l3.payload < %d", cut, 1<<18)})
	}
}

// build starts the server, computes the reference answers on a separate
// in-process system, and warms the tenant's plan cache through the wire.
func (sb *serveBench) build(ctx context.Context) (*server.Server, error) {
	srv, err := server.Start(ctx, server.Config{
		Addr:    "127.0.0.1:0",
		Tenants: []server.TenantConfig{{Name: svTenant, Limits: svLimits, Bootstrap: sb.bootstrap}},
	})
	if err != nil {
		return nil, err
	}
	ref := els.New()
	if err := sb.bootstrap(ref); err != nil {
		srv.Shutdown(ctx)
		return nil, err
	}
	for i := range sb.ops {
		o := &sb.ops[i]
		if o.op == wire.OpEstimate {
			est, err := ref.Estimate(o.sql, els.AlgorithmELS)
			if err != nil {
				srv.Shutdown(ctx)
				return nil, fmt.Errorf("reference estimate %q: %w", o.sql, err)
			}
			o.estimate = est.FinalSize
		} else {
			res, err := ref.Query(o.sql, els.AlgorithmELS)
			if err != nil {
				srv.Shutdown(ctx)
				return nil, fmt.Errorf("reference query %q: %w", o.sql, err)
			}
			o.estimate, o.count = res.Estimate.FinalSize, res.Count
		}
	}
	sb.ref = ref
	c, err := wire.Dial(ctx, srv.Addr())
	if err != nil {
		srv.Shutdown(ctx)
		return nil, err
	}
	defer c.Close()
	for _, o := range sb.ops {
		if _, err := c.Do(ctx, &wire.Request{Op: o.op, Tenant: svTenant, SQL: o.sql, Algo: "ELS"}); err != nil {
			srv.Shutdown(ctx)
			return nil, fmt.Errorf("warming %q: %w", o.sql, err)
		}
	}
	return srv, nil
}

// capConn keeps a copy of the bytes of the last round trip, so the traced
// phase can time the codec on the frames that really crossed the wire.
type capConn struct {
	net.Conn
	sent, recv bytes.Buffer
}

func (c *capConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Write(p[:n])
	return n, err
}

func (c *capConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Write(p[:n])
	return n, err
}

// svClient is one closed-loop client's phase outcome.
type svClient struct {
	ops, failed int64
	busy        time.Duration
	problems    []string
}

// runClient sends operations until the deadline. With layers it records a
// span per operation and the layer spans beside it.
func (sb *serveBench) runClient(ctx context.Context, id int, round int, ph *svPhase, deadline time.Time, l *layers) (*svClient, error) {
	raw, err := net.Dial("tcp", sb.srv.Addr())
	if err != nil {
		return nil, fmt.Errorf("dialing: %w", err)
	}
	var conn *capConn
	c := wire.NewClient(raw)
	if l != nil {
		conn = &capConn{Conn: raw}
		c = wire.NewClient(conn)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(sb.cfg.seed*31 + int64(round*svClients+id)))
	out := &svClient{}
	var queries []int
	for i, o := range sb.ops {
		if o.op == wire.OpQuery {
			queries = append(queries, i)
		}
	}
	for time.Now().Before(deadline) {
		o := sb.ops[rng.Intn(svEstimates)]
		if rng.Intn(svQueryEvery) == 0 {
			o = sb.ops[queries[rng.Intn(len(queries))]]
		}
		req := &wire.Request{Op: o.op, Tenant: svTenant, SQL: o.sql, Algo: "ELS"}
		root, call := 0, 0
		if l != nil {
			root = l.tr.start("op."+o.op, 0)
			call = l.tr.start("call.wire.Client.Do", root)
			conn.sent.Reset()
			conn.recv.Reset()
		}
		t0 := time.Now()
		resp, err := c.Do(ctx, req)
		lat := time.Since(t0)
		if l != nil {
			l.tr.end(call)
		}
		out.ops++
		out.busy += lat
		ph.all.add(ms(lat))
		switch {
		case err != nil:
			out.failed++
			if c.Broken() {
				return out, fmt.Errorf("client %d: %w", id, err)
			}
		case o.op == wire.OpEstimate:
			ph.est.add(ms(lat))
			if resp.Estimate == nil || resp.Estimate.FinalSize != o.estimate {
				out.problems = append(out.problems, fmt.Sprintf("estimate of %q: got %+v, want %g", o.sql, resp.Estimate, o.estimate))
			}
		default:
			ph.query.add(ms(lat))
			if resp.Result == nil || resp.Result.Count != o.count {
				out.problems = append(out.problems, fmt.Sprintf("count of %q: got %+v, want %d", o.sql, resp.Result, o.count))
			}
		}
		if l != nil {
			if err := sb.traceLayers(ctx, l, root, conn, req, o); err != nil {
				return out, err
			}
			l.tr.end(root)
		}
	}
	return out, nil
}

// traceLayers times the codec on the captured frames and the estimator
// layers on the request's query, and for a query takes the executor
// figures from the reference system. A request pays the codec, parse and
// canonicalization (its plan is cached) and, for a query, execution.
func (sb *serveBench) traceLayers(ctx context.Context, l *layers, root int, conn *capConn, req *wire.Request, o svOp) error {
	sent, recv := conn.sent.Bytes(), conn.recv.Bytes()
	var buf bytes.Buffer
	var err error
	codec := l.spanned("wire.EncodeRequest", root, func() {
		var payload []byte
		if payload, err = wire.EncodeRequest(req); err == nil {
			err = wire.WriteFrame(&buf, payload)
		}
	})
	if err != nil {
		return err
	}
	codec += l.spanned("wire.DecodeResponse", root, func() {
		var frame []byte
		if frame, err = wire.ReadFrame(bytes.NewReader(recv), 0); err == nil {
			_, err = wire.DecodeResponse(frame)
		}
	})
	if err != nil {
		return fmt.Errorf("decoding a captured frame: %w", err)
	}
	c, err := l.plan(ctx, root, req.SQL, cardest.ELS(), governor.Limits{}, o.estimate)
	if err != nil {
		return fmt.Errorf("mirror planning of %q: %w", req.SQL, err)
	}
	paid := codec + c.parse + c.canon
	if o.op == wire.OpQuery {
		res, err := sb.ref.QueryContext(ctx, o.sql, els.AlgorithmELS)
		if err != nil {
			return fmt.Errorf("reference query %q: %w", o.sql, err)
		}
		l.executed(res)
		paid += res.Elapsed
	}
	l.mu.Lock()
	l.codec += codec
	l.reqBytes += int64(len(sent))
	l.respBytes += int64(len(recv))
	l.mu.Unlock()
	l.op(paid)
	return nil
}

// svPhase merges the clients of one phase.
type svPhase struct {
	est, query, all *series
	ops, failed     int64
	busy, elapsed   time.Duration
}

func (ph svPhase) time() phaseTime { return phaseTime{ph.ops, ph.busy, ph.elapsed} }

func (sb *serveBench) phase(ctx context.Context, r *report, round int, d time.Duration, l *layers) (svPhase, error) {
	sys := sb.srv.System(svTenant)
	before := sys.CacheStats().Misses
	start := time.Now()
	ph := svPhase{est: newSeries(start), query: newSeries(start), all: newSeries(start)}
	deadline := start.Add(d)
	outs := make([]*svClient, svClients)
	errs := make([]error, svClients)
	var wg sync.WaitGroup
	for i := 0; i < svClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = sb.runClient(ctx, i, round, &ph, deadline, l)
		}(i)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	for _, s := range []*series{ph.est, ph.query, ph.all} {
		s.finish(ph.elapsed)
	}
	for i, o := range outs {
		if errs[i] != nil {
			return ph, errs[i]
		}
		ph.ops += o.ops
		ph.failed += o.failed
		ph.busy += o.busy
		for _, p := range o.problems {
			r.fail("serve: %s", p)
		}
	}
	if misses := sys.CacheStats().Misses - before; misses != 0 {
		r.fail("serve: %d plan-cache misses in the timed window, want 0", misses)
	}
	return ph, nil
}

func runServe(ctx context.Context, cfg *config, r *report) error {
	sb := &serveBench{cfg: cfg}
	sb.genOps()
	shutdown := func(srv *server.Server) error {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		return srv.Shutdown(sctx)
	}
	srv, err := measureSetup(cfg, r, func() (*server.Server, error) { return sb.build(ctx) }, shutdown)
	if err != nil {
		return err
	}
	sb.srv = srv
	err = sb.measure(ctx, cfg, r)
	if shutErr := shutdown(srv); err == nil {
		err = shutErr
	}
	if err != nil || cfg.trace {
		return err
	}
	return setPeakRSS(r)
}

// measure runs the untraced phase and, in a traced run, the traced one.
func (sb *serveBench) measure(ctx context.Context, cfg *config, r *report) error {
	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measure /= 2
	}
	ph, err := sb.phase(ctx, r, 0, measure, nil)
	if err != nil {
		return err
	}
	r.Attempted, r.Failed = ph.ops, ph.failed
	r.note("serve: %d estimates (p50 %.4g ms), %d queries (p50 %.4g ms) over %d clients",
		ph.est.total, ph.est.median50(), ph.query.total, ph.query.median50(), svClients)
	r.setErrorRate()
	if !cfg.trace {
		setOpMetrics(r, ph.all.rate(), ph.all.median50(), ph.all.median90())
		return nil
	}

	sys := sb.srv.System(svTenant)
	l, err := newLayers(sys)
	if err != nil {
		return err
	}
	c0 := countersOf(sys)
	tph, err := sb.phase(ctx, r, 1, measure, l)
	if err != nil {
		return err
	}
	c1 := countersOf(sys)
	r.Attempted += tph.ops
	r.Failed += tph.failed
	l.report(r, ph.time(), tph.time(), c0, c1)
	return l.tr.write(cfg.spans, "serve", cfg.seed)
}
