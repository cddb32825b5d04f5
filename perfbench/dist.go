package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path"
	"sort"
	"sync"
	"time"

	"wishbone/internal/apps/speech"
	"wishbone/internal/dist"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
	"wishbone/internal/server"
	"wishbone/internal/wire"
)

// dist-2host: the coordinator (this process) drives two wbserved
// processes on loopback, one core each, through dist.Coordinator.Run with
// default options (a checkpoint every window): 160 motes, the speech cut
// after filtBank, 2 s windows. The node phase, the shard RPC transport
// and the per-window barrier dominate; delivery nearly vanishes.
const (
	distNodes  = 160
	distHosts  = 2
	distWindow = 2.0
	// distPairs is how many fresh host pairs an untraced run measures in
	// turn, a third of the run each. One pair's window times stay near one
	// level for its whole life and that level differs from pair to pair,
	// so a run pools the Runs of several pairs.
	distPairs = 3
)

// rpcRec is one HTTP attempt the coordinator made to a shard host, timed
// at its transport: from the request leaving to its response body being
// closed (decoded).
type rpcRec struct {
	host       string
	op         string // last path element: open, compute, deliver, checkpoint, close, ...
	start, end time.Time
	reqBytes   int64
	respBytes  int64
	ok         bool
}

// rpcRecorder is the http.RoundTripper the coordinator's client uses: it
// records every attempt and passes it on unchanged.
type rpcRecorder struct {
	base http.RoundTripper
	mu   sync.Mutex
	recs []rpcRec
}

func (r *rpcRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := rpcRec{host: req.URL.Host, op: path.Base(req.URL.Path), start: time.Now(), reqBytes: req.ContentLength}
	resp, err := r.base.RoundTrip(req)
	if err != nil {
		rec.end = time.Now()
		r.add(rec)
		return nil, err
	}
	rec.ok = resp.StatusCode/100 == 2
	resp.Body = &countedBody{ReadCloser: resp.Body, done: func(n int64) {
		rec.end, rec.respBytes = time.Now(), n
		r.add(rec)
	}}
	return resp, nil
}

func (r *rpcRecorder) add(rec rpcRec) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// take returns and clears the records collected so far.
func (r *rpcRecorder) take() []rpcRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := r.recs
	r.recs = nil
	return recs
}

// countedBody counts response bytes and reports once, on Close.
type countedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// distWindowStat is one window of one Run, assembled from its RPCs.
type distWindowStat struct {
	start, end  time.Time // first compute request → last deliver response
	computeEnds []time.Time
	rpcs        []rpcRec // compute, deliver and checkpoint attempts
}

// windows groups a Run's RPC records into windows: calls to one host are
// strictly phased (compute, deliver, checkpoint, repeating), so a host's
// k-th compute opens its k-th window and later calls belong to it.
func windows(recs []rpcRec) []*distWindowStat {
	byHost := make(map[string][]rpcRec)
	for _, r := range recs {
		byHost[r.host] = append(byHost[r.host], r)
	}
	var out []*distWindowStat
	for _, hr := range byHost {
		sort.Slice(hr, func(i, j int) bool { return hr[i].start.Before(hr[j].start) })
		w := -1
		for _, r := range hr {
			switch r.op {
			case "compute":
				w++
				for len(out) <= w {
					out = append(out, &distWindowStat{})
				}
				ws := out[w]
				if ws.start.IsZero() || r.start.Before(ws.start) {
					ws.start = r.start
				}
				ws.computeEnds = append(ws.computeEnds, r.end)
				if r.end.After(ws.end) {
					ws.end = r.end // until a deliver response extends it
				}
				ws.rpcs = append(ws.rpcs, r)
			case "deliver", "checkpoint":
				if w < 0 {
					continue
				}
				ws := out[w]
				if r.op == "deliver" && r.end.After(ws.end) {
					ws.end = r.end
				}
				ws.rpcs = append(ws.rpcs, r)
			}
		}
	}
	return out
}

type distEnv struct {
	cfg    runtime.Config
	traces [][]profile.Input
}

func newDistEnv(o opts) *distEnv {
	app := speech.New()
	nodes, duration := distNodes, 20.0
	if o.tiny {
		nodes, duration = 8, 4
	}
	e := &distEnv{}
	for n := 0; n < nodes; n++ {
		e.traces = append(e.traces, []profile.Input{app.SampleTrace(o.seed*1000+int64(n), 2.0)})
	}
	e.cfg = runtime.Config{
		Graph:         app.Graph,
		OnNode:        speechCut(app, 6), // source … filtBank on the node
		Platform:      platform.Gumstix(),
		Nodes:         nodes,
		Duration:      duration,
		Seed:          o.seed,
		WindowSeconds: distWindow,
	}
	e.cfg.ArrivalSource = e.source(duration)
	return e
}

func (e *distEnv) source(duration float64) func(int) (runtime.Stream, error) {
	return func(n int) (runtime.Stream, error) { return runtime.InputStream(e.traces[n], 1, duration) }
}

// distPass is what one timed pass of Runs measured.
type distPass struct {
	runs, failed int
	runMS        []float64
	arrivalRate  []float64 // per Run: arrivals per second
	windowRate   []float64 // per Run: windows per second
	wins         []*distWindowStat
	recs         []rpcRec
}

// add pools q's Runs into p.
func (p *distPass) add(q *distPass) {
	p.runs += q.runs
	p.failed += q.failed
	p.runMS = append(p.runMS, q.runMS...)
	p.arrivalRate = append(p.arrivalRate, q.arrivalRate...)
	p.windowRate = append(p.windowRate, q.windowRate...)
	p.wins = append(p.wins, q.wins...)
	p.recs = append(p.recs, q.recs...)
}

// hostCluster is the set of spawned shard hosts and the coordinator
// driving them.
type hostCluster struct {
	hosts []*wbserved
	coord *dist.Coordinator
	rec   *rpcRecorder
}

func (c *hostCluster) stop() {
	for _, h := range c.hosts {
		h.stop()
	}
}

// peakRSSMiB is the largest VmHWM among the hosts.
func (c *hostCluster) peakRSSMiB() (float64, error) {
	rss := 0.0
	for _, h := range c.hosts {
		r, err := h.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		rss = max(rss, r)
	}
	return rss, nil
}

// startCluster spawns the hosts (one core each), waits until they are
// healthy and warms their caches with a one-window Run.
func startCluster(o opts, e *distEnv) (*hostCluster, error) {
	c := &hostCluster{rec: &rpcRecorder{base: loopbackTransport(4)}}
	var urls []string
	for i := 0; i < distHosts; i++ {
		h, err := spawnWBServed(o.wbserved, []string{"GOMAXPROCS=1"})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.hosts = append(c.hosts, h)
		urls = append(urls, h.url)
	}
	c.coord = dist.NewWithOptions(urls, dist.Options{HTTPClient: &http.Client{Transport: c.rec}})
	warm := e.cfg
	warm.Duration = distWindow
	warm.ArrivalSource = e.source(distWindow)
	_, distributed, err := c.coord.Run(context.Background(), wire.GraphSpec{App: "speech"}, warm)
	c.rec.take()
	if err == nil && !distributed {
		err = fmt.Errorf("warm-up Run did not distribute")
	}
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return c, nil
}

// pass runs whole Runs until d has elapsed and at least minWindows
// windows were measured (at least one Run), checking each Result against
// ref.
func (c *hostCluster) pass(e *distEnv, ref *runtime.Result, d time.Duration, minWindows int, tr *tracer) *distPass {
	p := &distPass{}
	start := time.Now()
	for p.runs == 0 || time.Since(start) < d || len(p.wins) < minWindows {
		r0 := time.Now()
		res, distributed, err := c.coord.Run(context.Background(), wire.GraphSpec{App: "speech"}, e.cfg)
		r1 := time.Now()
		recs := c.rec.take()
		wins := windows(recs)
		p.runs++
		p.runMS = append(p.runMS, ms(r1.Sub(r0)))
		p.arrivalRate = append(p.arrivalRate, float64(ref.InputEvents)/r1.Sub(r0).Seconds())
		p.windowRate = append(p.windowRate, float64(len(wins))/r1.Sub(r0).Seconds())
		if err != nil || !distributed || *res != *ref {
			p.failed++
		}
		p.wins = append(p.wins, wins...)
		p.recs = append(p.recs, recs...)
		traceRun(tr, int64(p.runs), r0, r1, wins, recs)
	}
	return p
}

// traceRun records a Run's spans: the Run, its windows, and every RPC
// under its window (open and close directly under the Run).
func traceRun(tr *tracer, id int64, r0, r1 time.Time, wins []*distWindowStat, recs []rpcRec) {
	if tr == nil {
		return
	}
	root := tr.add("dist.Run", -1, id, r0, r1)
	for wi, w := range wins {
		ws := tr.add("window", root, int64(wi), w.start, w.end)
		for _, r := range w.rpcs {
			tr.add("rpc."+r.op, ws, int64(wi), r.start, r.end)
		}
	}
	for _, r := range recs {
		switch r.op {
		case "compute", "deliver", "checkpoint": // under their window
		default:
			tr.add("rpc."+r.op, root, id, r.start, r.end)
		}
	}
}

func runDist(o opts) (*outcome, error) {
	e := newDistEnv(o)
	var c *hostCluster
	setup, _, err := timeSetup(5, func() (func(), error) {
		cl, err := startCluster(o, e)
		if err != nil {
			return nil, err
		}
		c = cl
		return cl.stop, nil
	})
	if err != nil {
		return nil, err
	}
	// c is the cluster still running: the last one set up, or the last
	// one a pass of pairs started.
	defer func() {
		if c != nil {
			c.stop()
		}
	}()
	ref, err := runtime.Run(e.cfg)
	if err != nil {
		return nil, fmt.Errorf("single-host reference: %w", err)
	}
	total := time.Duration(o.seconds * float64(time.Second))
	out := &outcome{}
	if !o.trace {
		// The p90 needs ten windows beyond it.
		minWindows := 100
		if o.tiny {
			minWindows = 0
		}
		p := &distPass{}
		var rss []float64
		for i := 0; i < distPairs; i++ {
			if i > 0 {
				c.stop()
				if c, err = startCluster(o, e); err != nil {
					return nil, err
				}
			}
			p.add(c.pass(e, ref, total/distPairs, (minWindows+distPairs-1)/distPairs, nil))
			r, err := c.peakRSSMiB()
			if err != nil {
				return nil, err
			}
			rss = append(rss, r)
		}
		out.attempted, out.failed = p.runs, p.failed
		out.e2e = map[string]float64{
			"setup_s":        setup,
			"peak_rss_mb":    quantile(rss, 0.5),
			"arrivals_per_s": quantile(p.arrivalRate, 0.5),
			"ops_per_s":      quantile(p.windowRate, 0.5),
			"op_ms_p50":      quantile(windowMS(p.wins), 0.5),
			"op_ms_p90":      quantile(windowMS(p.wins), 0.9),
			"stream_ms_p50":  quantile(p.runMS, 0.5),
		}
		return out, nil
	}

	plain := c.pass(e, ref, total/2, 0, nil)
	clients := make([]*server.Client, len(c.hosts))
	before := make([]*server.Snapshot, len(c.hosts))
	for i, h := range c.hosts {
		clients[i] = server.NewClient(h.url, nil)
		if before[i], err = stats(clients[i]); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	traced := c.pass(e, ref, total/2, 0, tr)
	out.attempted = plain.runs + traced.runs
	out.failed = plain.failed + traced.failed

	l := emptyLayers()
	rpcMS := func(op string) []float64 {
		var xs []float64
		for _, r := range traced.recs {
			if r.op == op && r.ok {
				xs = append(xs, ms(r.end.Sub(r.start)))
			}
		}
		return xs
	}
	l["dist.compute_rpc_ms_p50"] = quantile(rpcMS("compute"), 0.5)
	l["dist.deliver_rpc_ms_p50"] = quantile(rpcMS("deliver"), 0.5)
	l["dist.checkpoint_rpc_ms_p50"] = quantile(rpcMS("checkpoint"), 0.5)
	handler := map[string][2]float64{} // endpoint → (requests, total ms) over both hosts
	for i := range c.hosts {
		after, err := stats(clients[i])
		if err != nil {
			return nil, err
		}
		for _, ep := range []string{"shard_compute", "shard_deliver", "shard_checkpoint"} {
			n, tot := endpointDelta(before[i], after, ep)
			h := handler[ep]
			handler[ep] = [2]float64{h[0] + n, h[1] + tot}
		}
	}
	hmean := func(ep string) float64 { return ratio(handler[ep][1], handler[ep][0]) }
	l["server.shard_compute_ms_mean"] = hmean("shard_compute")
	l["server.shard_deliver_ms_mean"] = hmean("shard_deliver")
	l["server.shard_checkpoint_ms_mean"] = hmean("shard_checkpoint")
	l["dist.compute_rpc_self_ms"] = mean(rpcMS("compute")) - hmean("shard_compute")

	var reqB, respB, barrier, coordSelf float64
	for _, w := range traced.wins {
		lo, hi := w.computeEnds[0], w.computeEnds[0]
		for _, t := range w.computeEnds {
			if t.Before(lo) {
				lo = t
			}
			if t.After(hi) {
				hi = t
			}
		}
		barrier += ms(hi.Sub(lo))
		var ivs []interval
		for _, r := range w.rpcs {
			reqB += float64(r.reqBytes)
			respB += float64(r.respBytes)
			if r.op != "checkpoint" {
				ivs = append(ivs, interval{int64(r.start.Sub(w.start)), int64(r.end.Sub(w.start))})
			}
		}
		spanNS := int64(w.end.Sub(w.start))
		coordSelf += float64(spanNS-coveredNS(0, spanNS, ivs)) / 1e6
	}
	nw := float64(len(traced.wins))
	l["dist.req_bytes_per_window"] = ratio(reqB, nw)
	l["dist.resp_bytes_per_window"] = ratio(respB, nw)
	l["dist.barrier_wait_ms_per_window"] = ratio(barrier, nw)
	l["dist.coord_self_ms_per_window"] = ratio(coordSelf, nw)
	okN := 0
	for _, r := range traced.recs {
		if r.ok {
			okN++
		}
	}
	l["dist.attempts_per_rpc"] = ratio(float64(len(traced.recs)), float64(okN))
	l["trace.overhead_op_ms_p50"] = quantile(windowMS(traced.wins), 0.5) - quantile(windowMS(plain.wins), 0.5)
	l["trace.overhead_stream_ms_p50"] = quantile(traced.runMS, 0.5) - quantile(plain.runMS, 0.5)
	out.layers, out.spans = l, tr
	return out, nil
}

func windowMS(ws []*distWindowStat) []float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = ms(w.end.Sub(w.start))
	}
	return xs
}
