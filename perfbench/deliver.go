package main

import (
	"encoding/json"
	"fmt"
	goruntime "runtime"
	"time"

	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// deliver-64: 64 Gumstix motes with the speech cut after the source, so
// raw audio frames go to the server and server-side delivery dominates.
// One caller feeds pre-encoded i16s frames through Session.OfferRaw as
// fast as the session accepts them, session after session, in 1 s
// windows with delivery sharded at nproc.
const deliverNodes = 64

type deliverEnv struct {
	app      *speech.App
	onNode   map[int]bool
	plat     *platform.Platform
	nodes    int
	duration float64 // simulated seconds per session
	traces   [][]profile.Input
	frames   [][][]byte // per node, per trace event: the JSON-encoded i16s frame
	seed     int64
}

// speechCut places the first prefix operators of the speech pipeline on
// the node.
func speechCut(app *speech.App, prefix int) map[int]bool {
	onNode := make(map[int]bool, len(app.Pipeline))
	for i, op := range app.Pipeline {
		onNode[op.ID()] = i < prefix
	}
	return onNode
}

// newDeliverEnv sizes the deployment for app (the graph the session's
// programs are compiled from); genInputs makes its seeded inputs.
func newDeliverEnv(o opts, app *speech.App) *deliverEnv {
	// A basestation-class uplink that absorbs 64 raw streams without
	// congestion collapse, so the server actually processes the load.
	plat := platform.Gumstix()
	plat.Radio.BytesPerSec = 4e6
	plat.Radio.CollapseBytesPerSec = 8e6
	e := &deliverEnv{app: app, onNode: speechCut(app, 1), plat: plat,
		nodes: deliverNodes, duration: 10, seed: o.seed}
	if o.tiny {
		e.nodes, e.duration = 4, 2
	}
	return e
}

// genInputs makes each node's seeded 2 s audio trace and pre-encodes its
// frames as the JSON i16s arrays OfferRaw ingests.
func (e *deliverEnv) genInputs() error {
	for n := 0; n < e.nodes; n++ {
		in := e.app.SampleTrace(e.seed*1000+int64(n), 2.0)
		e.traces = append(e.traces, []profile.Input{in})
		var enc [][]byte
		for _, ev := range in.Events {
			b, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			enc = append(enc, b)
		}
		e.frames = append(e.frames, enc)
	}
	return nil
}

func (e *deliverEnv) config(node, srv *dataflow.Program) runtime.Config {
	return runtime.Config{
		Graph:         e.app.Graph,
		OnNode:        e.onNode,
		Platform:      e.plat,
		Nodes:         e.nodes,
		Duration:      e.duration,
		Seed:          e.seed,
		NodeProgram:   node,
		ServerProgram: srv,
		Shards:        goruntime.NumCPU(),
		WindowSeconds: 1,
	}
}

// reference is the sequential batch run of the same traces.
func (e *deliverEnv) reference() (*runtime.Result, error) {
	cfg := e.config(nil, nil)
	cfg.Shards, cfg.WindowSeconds = 0, 0
	cfg.Inputs = func(n int) []profile.Input { return e.traces[n] }
	res, err := runtime.Run(cfg)
	if err != nil {
		return nil, err
	}
	if res.PercentMsgsReceived() < 90 {
		return nil, fmt.Errorf("channel collapsed (%.1f%% received); the workload must exercise the server",
			res.PercentMsgsReceived())
	}
	return res, nil
}

// deliverPass is what one timed pass of sessions measured.
type deliverPass struct {
	sessions, failed int
	windows          int
	arrivals         int64
	windowMS         []float64 // first offer of a window → return of the call that closed it
	streamMS         []float64 // NewSession → Close return
	arrivalRate      []float64 // per session: arrivals per second
	windowRate       []float64 // per session: windows per second
	flushMS          []float64 // the window-closing OfferRaw calls
	closeMS          []float64
	ingestCalls      int64 // OfferRaw calls that closed no window (timed when traced)
	ingestNS         int64
	peakBuffered     int
}

// session streams one session of e.duration simulated seconds and checks
// its Result against ref.
func (e *deliverEnv) session(cfg runtime.Config, ref *runtime.Result, p *deliverPass, tr *tracer) {
	src := e.app.Pipeline[0]
	period := 1 / speech.FrameRate
	frames := int(e.duration * speech.FrameRate)
	perWindow := int(speech.FrameRate) // 1 s windows
	start := time.Now()
	p.sessions++
	sess, err := runtime.NewSession(cfg)
	if err != nil {
		p.failed++
		return
	}
	kids := []int{tr.add("runtime.NewSession", -1, int64(p.sessions), start, time.Now())}
	var winStart time.Time
	var winCalls, winNS int64
	for f := 0; f < frames; f++ {
		t := float64(f) * period
		for n := range e.frames {
			raw := e.frames[n][f%len(e.frames[n])]
			closes := n == 0 && f > 0 && f%perWindow == 0
			if !closes {
				if n == 0 && f%perWindow == 0 {
					winStart = time.Now()
				}
				var c0 time.Time
				if tr != nil {
					c0 = time.Now()
				}
				err = sess.OfferRaw(n, t, src, "i16s", raw)
				if tr != nil {
					winNS += int64(time.Since(c0))
					winCalls++
				}
			} else {
				c0 := time.Now()
				err = sess.OfferRaw(n, t, src, "i16s", raw)
				c1 := time.Now()
				p.flushMS = append(p.flushMS, ms(c1.Sub(c0)))
				p.windowMS = append(p.windowMS, ms(c1.Sub(winStart)))
				w := tr.add("window", -1, int64(len(p.windowMS)), winStart, c1)
				kids = append(kids, w)
				tr.add("runtime.OfferRaw.flush", w, int64(len(p.windowMS)), c0, c1)
				tr.setCalls(w, winCalls, winNS)
				p.ingestCalls += winCalls
				p.ingestNS += winNS
				winCalls, winNS = 0, 0
				winStart = c1
			}
			if err != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	p.arrivals += int64(frames * len(e.frames))
	p.windows += frames / perWindow
	p.ingestCalls += winCalls
	p.ingestNS += winNS
	if pb := sess.PeakBuffered(); pb > p.peakBuffered {
		p.peakBuffered = pb
	}
	c0 := time.Now()
	res, cerr := sess.Close()
	end := time.Now()
	kids = append(kids, tr.add("runtime.Close", -1, int64(p.sessions), c0, end))
	root := tr.add("runtime.session", -1, int64(p.sessions), start, end)
	for _, k := range kids {
		tr.setParent(k, root)
	}
	p.closeMS = append(p.closeMS, ms(end.Sub(c0)))
	p.streamMS = append(p.streamMS, ms(end.Sub(start)))
	p.arrivalRate = append(p.arrivalRate, float64(frames*len(e.frames))/end.Sub(start).Seconds())
	p.windowRate = append(p.windowRate, float64(frames/perWindow)/end.Sub(start).Seconds())
	if err != nil || cerr != nil || *res != *ref {
		p.failed++
	}
}

// pass runs whole sessions until d has elapsed (at least one).
func (e *deliverEnv) pass(cfg runtime.Config, ref *runtime.Result, d time.Duration, tr *tracer) *deliverPass {
	p := &deliverPass{}
	start := time.Now()
	for p.sessions == 0 || time.Since(start) < d {
		e.session(cfg, ref, p, tr)
	}
	return p
}

// arrivalsPerSec is the median session's ingest rate.
func (p *deliverPass) arrivalsPerSec() float64 { return quantile(p.arrivalRate, 0.5) }

func runDeliver(o opts) (*outcome, error) {
	// Set-up is building the application graph, compiling both
	// partitions and opening a session, repeated for a steady median.
	var e *deliverEnv
	var node, srv *dataflow.Program
	setup, closeLast, err := timeSetup(25, func() (func(), error) {
		app := speech.New()
		n, s, err := runtime.CompilePartition(app.Graph, speechCut(app, 1))
		if err != nil {
			return nil, err
		}
		env := newDeliverEnv(o, app)
		sess, err := runtime.NewSession(env.config(n, s))
		if err != nil {
			return nil, err
		}
		e, node, srv = env, n, s
		return func() { sess.Close() }, nil
	})
	if err != nil {
		return nil, err
	}
	closeLast()
	if err := e.genInputs(); err != nil {
		return nil, err
	}
	ref, err := e.reference()
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	cfg := e.config(node, srv)
	total := time.Duration(o.seconds * float64(time.Second))
	out := &outcome{}
	tally := func(p *deliverPass) {
		out.attempted += p.sessions
		out.failed += p.failed
	}
	if !o.trace {
		p := e.pass(cfg, ref, total, nil)
		tally(p)
		rss, err := vmHWM("self")
		if err != nil {
			return nil, err
		}
		out.e2e = deliverE2E(p, setup, rss)
		return out, nil
	}

	// Traced run: an untraced pass (also the allocation count), the traced
	// pass, and the single-worker baseline.
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	plain := e.pass(cfg, ref, total*2/5, nil)
	goruntime.ReadMemStats(&m1)
	tally(plain)

	tr := newTracer()
	timings := &runtime.StageTimings{}
	tcfg := cfg
	tcfg.Timings = timings
	traced := e.pass(tcfg, ref, total*2/5, tr)
	tally(traced)

	single := cfg
	single.Workers, single.Shards = 1, 1
	one := e.pass(single, ref, total/5, nil)
	tally(one)

	windows := float64(traced.windows)
	l := emptyLayers()
	l["runtime.ingest_ns_per_arrival"] = ratio(float64(traced.ingestNS), float64(traced.ingestCalls))
	l["runtime.deliver_ms_per_window"] = 1e3 * timings.DeliverySeconds() / windows
	l["runtime.stage_overlap_ms_per_window"] = 1e3 * timings.OverlapSeconds() / windows
	l["runtime.node_ms_per_window"] = 1e3 * timings.NodeSeconds() / windows
	l["runtime.flush_call_ms_p50"] = quantile(traced.flushMS, 0.5)
	// The node stage runs inside the window-closing calls (and, for the
	// last window of a session, inside Close); what remains of those calls
	// is hand-off, waiting on the previous window's delivery, and drain.
	closing := 0.0
	for _, x := range traced.flushMS {
		closing += x
	}
	for _, x := range traced.closeMS {
		closing += x
	}
	l["runtime.flush_self_ms_per_window"] = (closing - 1e3*timings.NodeSeconds()) / windows
	l["runtime.close_ms"] = mean(traced.closeMS)
	l["runtime.mallocs_per_arrival"] = float64(m1.Mallocs-m0.Mallocs) / float64(plain.arrivals)
	l["runtime.alloc_bytes_per_arrival"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(plain.arrivals)
	l["runtime.peak_buffered"] = float64(traced.peakBuffered)
	var batched, all int64
	for _, st := range srv.BatchStats() {
		batched += st.Batched
		all += st.Total
	}
	l["dataflow.batch_hit_ratio"] = ratio(float64(batched), float64(all))
	l["runtime.single_worker_arrivals_per_s"] = one.arrivalsPerSec()
	l["trace.overhead_op_ms_p50"] = quantile(traced.windowMS, 0.5) - quantile(plain.windowMS, 0.5)
	l["trace.overhead_stream_ms_p50"] = quantile(traced.streamMS, 0.5) - quantile(plain.streamMS, 0.5)
	out.layers, out.spans = l, tr
	return out, nil
}

func deliverE2E(p *deliverPass, setup, rss float64) map[string]float64 {
	return map[string]float64{
		"setup_s":        setup,
		"peak_rss_mb":    rss,
		"arrivals_per_s": p.arrivalsPerSec(),
		"ops_per_s":      quantile(p.windowRate, 0.5),
		"op_ms_p50":      quantile(p.windowMS, 0.5),
		"op_ms_p90":      quantile(p.windowMS, 0.9),
		"stream_ms_p50":  quantile(p.streamMS, 0.5),
	}
}
