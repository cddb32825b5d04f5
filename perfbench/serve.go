package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wishbone/internal/apps/speech"
	"wishbone/internal/server"
	"wishbone/internal/wire"
	"wishbone/internal/wscript"
)

// serve-mix: closed-loop tenants (one per core) send seeded sequences of
// partition and streaming-simulation requests to one wbserved with
// default flags, exercising the HTTP layer, the program cache, the job
// pool, the solvers, the control plane and the wscript VM.
//
// Each tenant walks its deck once per round in a seeded order; the
// partition tenant stops only at a round boundary, so a run serves whole
// decks and its latency quantiles see a fixed mix.

//go:embed energy.ws
var energySrc string

// serveReq is one request of the deck.
type serveReq struct {
	key       string // identity for the reference check: equal keys, equal responses
	partition *wire.PartitionRequest
	stream    *wire.SimulateStreamRequest
	feed      []wire.ArrivalWire // stream body arrivals (read-only, shared)
	wscript   bool
}

// serveResp is one served request, as the tenant saw it.
type serveResp struct {
	req        *serveReq
	body       []byte // response JSON with cacheHit cleared; nil on failure
	err        error
	start, end time.Time
	probes     int
	replans    int
	moves      int
}

const (
	streamNodes  = 8
	streamWindow = 2.0
	streamChunk  = 256 // arrivals per chunk of a stream body
)

type serveEnv struct {
	seed     int64
	hitTrace wire.TraceSpec // trace of every partition meant to hit the cache
	// The decks: cache-hitting partitions, templates of cache-missing
	// ones, and the streams.
	partitions []*serveReq
	misses     []wire.PartitionRequest
	streams    []*serveReq
	missSeq    int64
	missMu     sync.Mutex
	warm       []*serveReq // requests that fill the caches during set-up
}

func newServeEnv(o opts) (*serveEnv, error) {
	// Cache-hitting partitions profile under one fixed trace, so every
	// seed solves the same problem instances (their solve times vary by
	// instance, and with them the quantiles); the seed sets the request
	// order, the cache misses' traces and the streams' data.
	e := &serveEnv{seed: o.seed, hitTrace: wire.TraceSpec{Seed: 1}}
	part := func(spec wire.GraphSpec, plat, solver string) *serveReq {
		req := &wire.PartitionRequest{Graph: spec, Trace: e.hitTrace, Platform: plat, Solver: solver}
		return &serveReq{key: "partition " + string(mustJSON(req)), partition: req}
	}
	plats := []string{"TMoteSky", "NokiaN80"}
	backends := []string{"exact", "lagrangian", "greedy"}
	type graphMix struct {
		spec     wire.GraphSpec
		backends []string
		copies   int // times each request is sent per round
	}
	// Small graphs dominate so the p90 has samples; exact only where it
	// finishes in well under a second; the two largest EEG graphs only
	// with greedy (lagrangian's rate search takes seconds there). The
	// three smallest graphs go twice a round, which also puts the median
	// among their closely spaced solve times rather than in the sparse
	// range above them, where it would jump between requests.
	mixes := []graphMix{
		{wire.GraphSpec{App: "speech"}, backends, 2},
		{wire.GraphSpec{App: "eeg", Channels: 2}, backends, 2},
		{wire.GraphSpec{App: "eeg", Channels: 4}, backends, 2},
		{wire.GraphSpec{App: "eeg", Channels: 6}, backends, 1},
		{wire.GraphSpec{App: "eeg", Channels: 8}, backends, 1},
		{wire.GraphSpec{App: "eeg", Channels: 12}, []string{"lagrangian", "greedy"}, 1},
		{wire.GraphSpec{App: "eeg", Channels: 16}, []string{"greedy"}, 1},
		{wire.GraphSpec{App: "eeg", Channels: 22}, []string{"greedy"}, 1},
	}
	if o.tiny {
		mixes = mixes[:2]
	}
	for _, m := range mixes {
		for _, p := range plats {
			for _, b := range m.backends {
				r := part(m.spec, p, b)
				for c := 0; c < m.copies; c++ {
					e.partitions = append(e.partitions, r)
				}
			}
		}
		e.warm = append(e.warm, part(m.spec, "NokiaN80", "greedy"))
	}
	// Cache misses: small graphs re-profiled under a trace seed no other
	// request uses.
	for _, ch := range []int{2, 4, 6, 8} {
		for _, b := range []string{"lagrangian", "greedy"} {
			e.misses = append(e.misses, wire.PartitionRequest{
				Graph: wire.GraphSpec{App: "eeg", Channels: ch}, Platform: "TMoteSky", Solver: b})
		}
		if o.tiny {
			break
		}
	}

	speechStreams, duration := 3, 30.0
	if o.tiny {
		speechStreams, duration = 1, 8
	}
	app := speech.New()
	for k := 0; k < speechStreams; k++ {
		s, err := speechStream(app, o.seed*1000+int64(k), duration)
		if err != nil {
			return nil, err
		}
		s.key = fmt.Sprintf("speech stream %d", k)
		e.streams = append(e.streams, s)
	}
	ws, err := wscriptStream(o.seed, duration)
	if err != nil {
		return nil, err
	}
	e.streams = append(e.streams, ws)
	for _, s := range []*serveReq{e.streams[0], ws} {
		// A short prefix of each stream kind compiles its cut's programs.
		warm := *s
		warm.key += " (warm-up)"
		warm.feed = s.feed[:streamChunk]
		e.warm = append(e.warm, &warm)
	}
	return e, nil
}

// speechStream is an 8-mote speech stream (cut after filtBank on a
// Gumstix) with a replan block naming exact; past mid-run every frame is
// offered twice (an echo 10 ms later), doubling the frame rate so the
// control loop fires.
func speechStream(app *speech.App, traceSeed int64, duration float64) (*serveReq, error) {
	in := app.SampleTrace(traceSeed, 2.0)
	var onNode []int
	for _, op := range app.Pipeline[:6] {
		onNode = append(onNode, op.ID())
	}
	period := 1 / in.Rate
	var feed []wire.ArrivalWire
	for f := 0; f < int(duration/period); f++ {
		t := float64(f) * period
		v, err := json.Marshal(in.Events[f%len(in.Events)])
		if err != nil {
			return nil, err
		}
		for n := 0; n < streamNodes; n++ {
			a := wire.ArrivalWire{Node: n, Time: t, Source: in.Source.ID(), Type: "i16s", Value: v}
			feed = append(feed, a)
			if t > duration/2 {
				echo := a
				echo.Time += 0.01
				feed = append(feed, echo)
			}
		}
	}
	sort.SliceStable(feed, func(i, j int) bool {
		if feed[i].Time != feed[j].Time {
			return feed[i].Time < feed[j].Time
		}
		return feed[i].Node < feed[j].Node
	})
	return &serveReq{
		stream: &wire.SimulateStreamRequest{
			Graph: wire.GraphSpec{App: "speech"}, Platform: "Gumstix", OnNode: onNode,
			Nodes: streamNodes, Duration: duration, Seed: traceSeed, WindowSeconds: streamWindow,
			Replan: &wire.ReplanWire{Threshold: 0.5, Hysteresis: 2, Decay: 0.5, MaxReplans: 1, Solver: "exact"},
		},
		feed: feed,
	}, nil
}

// wscriptStream streams energy.ws (every operator but the sink on the
// node) over seeded readings, under fuel and memory limits.
func wscriptStream(seed int64, duration float64) (*serveReq, error) {
	c, err := wscript.CompileOpts(energySrc, wscript.Options{})
	if err != nil {
		return nil, err
	}
	var onNode []int
	for _, op := range c.Graph.Operators() {
		if op.ID() != c.Sink.ID() {
			onNode = append(onNode, op.ID())
		}
	}
	src := c.Sources["x"]
	if src == nil {
		return nil, fmt.Errorf("energy.ws has no source x")
	}
	rng := rand.New(rand.NewSource(seed))
	period := 1 / src.Rate
	var feed []wire.ArrivalWire
	for f := 0; f < int(duration/period); f++ {
		for n := 0; n < streamNodes; n++ {
			v := mustJSON(rng.NormFloat64() * 50)
			feed = append(feed, wire.ArrivalWire{Node: n, Time: float64(f) * period, Source: src.Op.ID(), Value: v})
		}
	}
	return &serveReq{
		key: "wscript stream",
		stream: &wire.SimulateStreamRequest{
			Graph: wire.GraphSpec{App: "wscript", Source: energySrc}, Platform: "TMoteSky", OnNode: onNode,
			Nodes: streamNodes, Duration: duration, Seed: seed, WindowSeconds: streamWindow,
			Limits: &wire.LimitsWire{Fuel: 10000, MemBytes: 1 << 16},
		},
		feed:    feed,
		wscript: true,
	}, nil
}

// nextMiss returns a cache-missing partition request: template i under a
// trace seed used by no other request of the run.
func (e *serveEnv) nextMiss(i int) *serveReq {
	e.missMu.Lock()
	e.missSeq++
	seq := e.missSeq
	e.missMu.Unlock()
	req := e.misses[i]
	req.Trace = wire.TraceSpec{Seed: 1_000_000 + e.seed*100_000 + seq}
	return &serveReq{key: "partition " + string(mustJSON(req)), partition: &req}
}

// do serves one request through c and normalizes the response.
func do(ctx context.Context, c *server.Client, r *serveReq) serveResp {
	out := serveResp{req: r, start: time.Now()}
	var resp any
	if r.partition != nil {
		pr, err := c.Partition(ctx, *r.partition)
		out.err = err
		if err == nil {
			// Cache state and solver wall-clock readings are not outputs.
			pr.CacheHit = false
			if pr.Assignment != nil {
				pr.Assignment.Stats.DiscoverTime, pr.Assignment.Stats.ProveTime = 0, 0
			}
			out.probes = pr.Probes
			resp = pr
		}
	} else {
		i := 0
		sr, err := c.SimulateStream(ctx, *r.stream, func() ([]wire.ArrivalWire, bool) {
			if i >= len(r.feed) {
				return nil, false
			}
			j := min(i+streamChunk, len(r.feed))
			batch := r.feed[i:j]
			i = j
			return batch, true
		})
		out.err = err
		if err == nil {
			sr.CacheHit = false
			out.replans = len(sr.Replans)
			for _, ev := range sr.Replans {
				out.moves += len(ev.Moved)
			}
			resp = sr
		}
	}
	out.end = time.Now()
	if resp != nil {
		out.body = mustJSON(resp)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request/response structs are marshaled
	}
	return b
}

// servePass is what one timed pass of the tenants measured.
type servePass struct {
	resps      []serveResp
	partWall   time.Duration // until the last partition tenant stopped
	streamWall time.Duration // until the last stream tenant stopped
}

// pass runs one closed-loop tenant per core (at least two) until d has
// elapsed. Even tenants send the partition deck (cache hits plus fresh
// misses) and odd ones the stream deck, each in a seeded order per round,
// so every partition is served while a stream is in flight and the other
// way round. Partition tenants stop at a round boundary; stream tenants
// finish their current stream once every partition tenant has stopped.
func (e *serveEnv) pass(url string, d time.Duration, tr *tracer) *servePass {
	tenants := max(2, goruntime.NumCPU())
	client := server.NewClient(url, &http.Client{Transport: loopbackTransport(tenants)})
	per := make([][]serveResp, tenants)
	ends := make([]time.Time, tenants)
	start := time.Now()
	var partitioners sync.WaitGroup
	var partitionsDone atomic.Bool
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		streams := t%2 == 1
		if !streams {
			partitioners.Add(1)
		}
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			if !streams {
				defer partitioners.Done()
			}
			for round := 0; ; round++ {
				if !streams && round > 0 && time.Since(start) >= d {
					break
				}
				order := append([]*serveReq(nil), e.streams...)
				if !streams {
					order = append([]*serveReq(nil), e.partitions...)
					for i := range e.misses {
						order = append(order, e.nextMiss(i))
					}
				}
				rng := rand.New(rand.NewSource(e.seed*7919 + int64(t)*104729 + int64(round)))
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				r0 := time.Now()
				var kids []int
				for i, r := range order {
					if streams && len(per[t]) > 0 && partitionsDone.Load() {
						break
					}
					resp := do(context.Background(), client, r)
					per[t] = append(per[t], resp)
					name := "req.partition"
					if streams {
						name = "req.stream"
					}
					kids = append(kids, tr.add(name, -1, int64(i), resp.start, resp.end))
				}
				root := tr.add("tenant.round", -1, int64(t), r0, time.Now())
				for _, k := range kids {
					tr.setParent(k, root)
				}
				if streams && partitionsDone.Load() {
					break
				}
			}
			ends[t] = time.Now()
		}(t)
	}
	partitioners.Wait()
	partitionsDone.Store(true)
	wg.Wait()
	p := &servePass{}
	for t, rs := range per {
		p.resps = append(p.resps, rs...)
		if t%2 == 1 {
			p.streamWall = max(p.streamWall, ends[t].Sub(start))
		} else {
			p.partWall = max(p.partWall, ends[t].Sub(start))
		}
	}
	return p
}

// latencies splits a pass's client latencies by request kind.
func (p *servePass) latencies() (partition, stream []float64) {
	for _, r := range p.resps {
		if r.body == nil {
			continue
		}
		if r.req.partition != nil {
			partition = append(partition, ms(r.end.Sub(r.start)))
		} else {
			stream = append(stream, ms(r.end.Sub(r.start)))
		}
	}
	return partition, stream
}

// check compares every response with the response a fresh in-process
// server gives the same request served alone, and returns how many
// requests failed (non-2xx or a mismatch).
func check(resps []serveResp) int {
	refs := make(map[string][]byte)
	failed := 0
	for _, r := range resps {
		if r.body == nil {
			if failed < 3 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.req.key, r.err)
			}
			failed++
			continue
		}
		ref, ok := refs[r.req.key]
		if !ok {
			ref = reference(r.req)
			refs[r.req.key] = ref
		}
		if ref == nil || !bytes.Equal(ref, r.body) {
			if failed < 3 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: response differs from a fresh server's\n got: %s\nwant: %s\n",
					r.req.key, r.body, ref)
			}
			failed++
		}
	}
	return failed
}

// servePasses is how many fresh services an untraced run measures in
// turn, a third of the run each, pooling their requests.
const servePasses = 3

// start spawns a wbserved and fills its caches with the warm-up requests.
func (e *serveEnv) start(o opts) (*wbserved, error) {
	s, err := spawnWBServed(o.wbserved, nil)
	if err != nil {
		return nil, err
	}
	c := server.NewClient(s.url, nil)
	for _, r := range e.warm {
		if resp := do(context.Background(), c, r); resp.body == nil {
			s.stop()
			return nil, fmt.Errorf("warm-up request %s: %w", r.key, resp.err)
		}
	}
	return s, nil
}

// reference serves r alone on a fresh in-process server.
func reference(r *serveReq) []byte {
	svc := server.New(server.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		svc.Close()
	}()
	return do(context.Background(), server.NewClient(ts.URL, nil), r).body
}

func runServe(o opts) (*outcome, error) {
	e, err := newServeEnv(o)
	if err != nil {
		return nil, err
	}
	var w *wbserved
	setup, _, err := timeSetup(5, func() (func(), error) {
		s, err := e.start(o)
		if err != nil {
			return nil, err
		}
		w = s
		return s.stop, nil
	})
	if err != nil {
		return nil, err
	}
	// w is the service still running: the last one set up, or the last
	// one a pass of services started.
	defer func() {
		if w != nil {
			w.stop()
		}
	}()
	total := time.Duration(o.seconds * float64(time.Second))
	out := &outcome{}
	if !o.trace {
		p := &servePass{}
		var rss []float64
		for i := 0; i < servePasses; i++ {
			if i > 0 {
				w.stop()
				if w, err = e.start(o); err != nil {
					return nil, err
				}
			}
			q := e.pass(w.url, total/servePasses, nil)
			r, err := w.peakRSSMiB()
			if err != nil {
				return nil, err
			}
			rss = append(rss, r)
			p.resps = append(p.resps, q.resps...)
			p.partWall += q.partWall
			p.streamWall += q.streamWall
		}
		out.attempted, out.failed = len(p.resps), check(p.resps)
		parts, streams := p.latencies()
		arrivals := 0
		for _, r := range p.resps {
			if r.body != nil && r.req.stream != nil {
				arrivals += len(r.req.feed)
			}
		}
		out.e2e = map[string]float64{
			"setup_s":        setup,
			"peak_rss_mb":    quantile(rss, 0.5),
			"arrivals_per_s": float64(arrivals) / p.streamWall.Seconds(),
			"ops_per_s":      float64(len(parts)) / p.partWall.Seconds(),
			"op_ms_p50":      quantile(parts, 0.5),
			"op_ms_p90":      quantile(parts, 0.9),
			"stream_ms_p50":  quantile(streams, 0.5),
		}
		return out, nil
	}

	plain := e.pass(w.url, total/2, nil)
	client := server.NewClient(w.url, nil)
	before, err := stats(client)
	if err != nil {
		return nil, err
	}
	// Sample the job-pool queue while the traced pass runs.
	stop := make(chan struct{})
	sampled := make(chan int64, 1)
	go func() {
		var queued int64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- queued
				return
			case <-tick.C:
				if s, err := stats(client); err == nil {
					queued = max(queued, s.QueuedJobs)
				}
			}
		}
	}()
	tr := newTracer()
	traced := e.pass(w.url, total/2, tr)
	close(stop)
	queuedMax := <-sampled
	after, err := stats(client)
	if err != nil {
		return nil, err
	}
	out.attempted = len(plain.resps) + len(traced.resps)
	out.failed = check(plain.resps) + check(traced.resps)

	l := emptyLayers()
	var solveMS, runs, feasible float64
	for _, b := range []string{"exact", "lagrangian", "greedy"} {
		a, z := after.Solvers[b], before.Solvers[b]
		n := float64(a.Runs - z.Runs)
		tot := a.MeanMs*float64(a.Runs) - z.MeanMs*float64(z.Runs)
		l["solver."+b+".solve_ms_mean"] = ratio(tot, n)
		solveMS += tot
		runs += n
		feasible += float64(a.Feasible - z.Feasible)
	}
	l["solver.feasible_ratio"] = ratio(feasible, runs)
	var probes, nPart, clientMS, nReq float64
	var replans, moves, speechStreams, wscriptStreams float64
	for _, r := range traced.resps {
		if r.body == nil {
			continue
		}
		clientMS += ms(r.end.Sub(r.start))
		nReq++
		switch {
		case r.req.partition != nil:
			probes += float64(r.probes)
			nPart++
		case r.req.wscript:
			wscriptStreams++
		default:
			speechStreams++
			replans += float64(r.replans)
			moves += float64(r.moves)
		}
	}
	l["solver.solves_per_partition"] = ratio(probes, nPart)
	pn, pms := endpointDelta(before, after, "partition")
	sn, sms := endpointDelta(before, after, "simulate_stream")
	l["server.partition_handler_ms_mean"] = ratio(pms, pn)
	l["server.stream_handler_ms_mean"] = ratio(sms, sn)
	// Solver time includes the stream replans' solves (exact on the
	// 9-operator speech graph), which are small next to the partitions'.
	l["server.partition_self_ms_mean"] = ratio(pms-solveMS, pn)
	l["server.http_self_ms_mean"] = ratio(clientMS-pms-sms, nReq)
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	l["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	l["server.queued_jobs_max"] = float64(queuedMax)
	l["runtime.replans_per_stream"] = ratio(replans, speechStreams)
	l["runtime.moves_per_replan"] = ratio(moves, replans)
	var fuel float64
	for k, f := range after.Fuel {
		fuel += float64(f.Fuel - before.Fuel[k].Fuel)
	}
	l["wvm.fuel_per_wscript_stream"] = ratio(fuel, wscriptStreams)
	tp, ts := traced.latencies()
	pp, ps := plain.latencies()
	l["trace.overhead_op_ms_p50"] = quantile(tp, 0.5) - quantile(pp, 0.5)
	l["trace.overhead_stream_ms_p50"] = quantile(ts, 0.5) - quantile(ps, 0.5)
	out.layers, out.spans = l, tr
	return out, nil
}
