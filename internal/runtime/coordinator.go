package runtime

import (
	"fmt"
	"math"
	"sort"

	"wishbone/internal/dataflow"
	"wishbone/internal/netsim"
	"wishbone/internal/wire"
)

// coordinator is the coupling state every session driver shares. A local
// Session and a distributed DistSession differ only in where the node
// phase and the per-origin delivery run — in-process shards or bound
// shard hosts. What couples the origins lives here, once: the arrival
// buffer and window clock, the backpressure cap and churn gate, the
// in-network reduce rounds, and the delivery-ratio pricing. In the dual-
// decomposition view (Wei–Ozdaglar–Jadbabaie) this is the whole master
// problem: summed offered air goes in, one price per window comes out,
// and the ratio bookkeeping folds the prices into the Result's
// DeliveryRatio.
//
// Every method runs on the Offer caller's goroutine, in window order.
type coordinator struct {
	cfg     Config
	ch      netsim.Channel
	agg     *reduceAggregator
	sources map[*dataflow.Operator]bool
	window  float64
	scen    *scenarioState
	buf     [][]arrival

	// flush is the driver's window barrier: run the buffered window
	// through the node phase, fold, price and deliver it.
	flush func() error

	// OnWindow, when set, observes every priced window as it flushes —
	// the live load signal the control loop (control.go) folds into its
	// online profile. It always runs on the Offer caller's goroutine
	// (pricing is a coordinator step even when delivery is pipelined or
	// distributed), so implementations need no locking.
	OnWindow func(WindowObservation)

	maxBuffered  int
	windowStart  float64
	lastSpan     float64
	lastTime     float64
	buffered     int
	peakBuffered int
	totalAir     int
	ratioFirst   float64
	ratioAir     float64
	ratioUniform bool
	sawWindow    bool
	res          Result
	closed       bool
}

// maxWindowArrivals caps one ingestion window's buffered arrivals — far
// above any sane window (64 nodes × 40 ev/s × 60 s ≈ 150k) but a hard
// stop for a hostile or misconfigured stream that never crosses a window
// boundary.
const maxWindowArrivals = 1 << 20

// init validates the window and builds the coupling state of a validated
// cfg; flush is the driver's window barrier.
func (c *coordinator) init(cfg Config, flush func() error) error {
	if math.IsNaN(cfg.WindowSeconds) || math.IsInf(cfg.WindowSeconds, 0) || cfg.WindowSeconds < 0 {
		return fmt.Errorf("runtime: bad WindowSeconds %g", cfg.WindowSeconds)
	}
	*c = coordinator{
		cfg:          cfg,
		ch:           netsim.ChannelFor(cfg.Platform),
		agg:          newReduceAggregator(cfg.Nodes),
		sources:      make(map[*dataflow.Operator]bool),
		window:       cfg.WindowSeconds,
		buf:          make([][]arrival, cfg.Nodes),
		flush:        flush,
		maxBuffered:  cfg.MaxBufferedArrivals,
		ratioUniform: true,
	}
	if c.maxBuffered <= 0 || c.maxBuffered > maxWindowArrivals {
		c.maxBuffered = maxWindowArrivals
	}
	if c.window <= 0 {
		c.window = 10
	}
	if c.window > cfg.Duration {
		c.window = cfg.Duration
	}
	c.lastSpan = c.window
	for _, src := range cfg.Graph.Sources() {
		c.sources[src] = true
	}
	c.scen = newScenarioState(&c.cfg)
	return nil
}

// Offer feeds one arrival. Arrivals must be globally nondecreasing in
// time across nodes (per-node interleaving is free); crossing a window
// boundary flushes the completed window through the node phase and the
// delivery. Arrivals at or beyond cfg.Duration are ignored, like the
// batch path's arrival builder.
func (c *coordinator) Offer(nodeID int, a Arrival) error {
	if err := c.admit(nodeID, a.Source, a.Time); err != nil {
		return err
	}
	if a.Time >= c.cfg.Duration {
		return nil
	}
	if err := c.advance(a.Time); err != nil {
		return err
	}
	if c.scen.drops(nodeID, a.Time) {
		// The node is crashed under the failure scenario: the arrival
		// vanishes, but its time already advanced the window clock so
		// windows keep flushing (and the control loop keeps observing)
		// while nodes are down.
		return nil
	}
	return c.push(nodeID, arrival{t: a.Time, src: a.Source, v: a.Value})
}

// admit applies the per-arrival validity checks and advances the
// time-order watermark.
func (c *coordinator) admit(nodeID int, src *dataflow.Operator, t float64) error {
	if c.closed {
		return fmt.Errorf("runtime: Offer on a closed session")
	}
	if nodeID < 0 || nodeID >= c.cfg.Nodes {
		return fmt.Errorf("runtime: arrival for node %d outside [0,%d): %w", nodeID, c.cfg.Nodes, ErrBadArrival)
	}
	if !c.sources[src] {
		// Arrivals inject only at the graph's sources (all of which
		// validateConfig pins to the node partition, §4.2.1) — an
		// injection at a mid-graph or server-side operator would bypass
		// upstream processing and silently skew the Result.
		return fmt.Errorf("runtime: arrival source %v is not a source of the graph: %w", src, ErrBadArrival)
	}
	if t < c.lastTime {
		return fmt.Errorf("runtime: arrivals out of order (%.6f after %.6f): %w", t, c.lastTime, ErrBadArrival)
	}
	c.lastTime = t
	return nil
}

// advance flushes every window boundary the arrival time crosses.
func (c *coordinator) advance(t float64) error {
	for t >= c.windowStart+c.window {
		if c.windowStart+c.window <= c.windowStart {
			return fmt.Errorf("runtime: WindowSeconds %g cannot advance the window clock at t=%g",
				c.window, c.windowStart)
		}
		if c.buffered == 0 {
			// Nothing pending: jump the window clock over the rest of the
			// arrival gap in one step rather than one (empty) flush per
			// window — windows can be arbitrarily small relative to the
			// gap, and the gap can follow a flushed window.
			if steps := math.Floor((t - c.windowStart) / c.window); steps > 1 {
				c.windowStart += (steps - 1) * c.window
				continue
			}
		}
		if err := c.flush(); err != nil {
			return err
		}
	}
	return nil
}

// push buffers one validated, in-window arrival.
func (c *coordinator) push(nodeID int, a arrival) error {
	if c.buffered >= c.maxBuffered {
		// The buffer is the streaming path's entire working set; a window
		// dense enough to blow past this cap (arrival density × window
		// size is caller-controlled) must fail rather than grow without
		// bound — shrink WindowSeconds or thin the trace. Typed as
		// backpressure so servers can shed the tenant with a 429.
		return fmt.Errorf("runtime: window [%g,%g) exceeds %d buffered arrivals: %w",
			c.windowStart, c.windowStart+c.window, c.maxBuffered, ErrBackpressure)
	}
	c.buf[nodeID] = append(c.buf[nodeID], a)
	c.buffered++
	if c.buffered > c.peakBuffered {
		c.peakBuffered = c.buffered
	}
	return nil
}

// beginWindow advances the clock past the window being flushed and
// returns its span: WindowSeconds, except for a final partial window
// (Duration not a multiple of the window), whose messages occupy only
// the remaining simulated time — pricing them over a full window would
// understate the offered load. ok is false when nothing arrived: no node
// work, no new reduce rounds, nothing to deliver.
func (c *coordinator) beginWindow() (span float64, ok bool) {
	span = c.window
	if rest := c.cfg.Duration - c.windowStart; rest < span {
		span = rest
	}
	c.windowStart += c.window
	if c.buffered == 0 {
		return span, false
	}
	c.lastSpan = span
	return span, true
}

// fold runs one window's node-phase messages through the global reduce
// rounds and returns, appended to out, everything ready to deliver.
func (c *coordinator) fold(msgs, out []message) []message {
	out = c.agg.add(&c.cfg, msgs, &c.res, out)
	out = c.agg.flushComplete(&c.cfg, &c.res, out)
	return c.agg.flushExcess(&c.cfg, &c.res, out)
}

// price prices one window: its offered air over its span, through the
// channel and the burst model, in window order (the ratio is a global
// function of every origin's load). A window with no message to deliver
// is observed but not priced (ok false).
func (c *coordinator) price(air, msgs int, span float64) (ratio float64, ok bool) {
	obs := WindowObservation{Start: c.windowStart - c.window, Span: span}
	if msgs == 0 {
		if c.OnWindow != nil {
			c.OnWindow(obs)
		}
		return 0, false
	}
	c.totalAir += air
	ratio = c.scen.priceRatio(c.ch.DeliveryRatio(float64(air)/span), c.windowIndex())
	if !c.sawWindow {
		c.ratioFirst, c.sawWindow = ratio, true
	} else if ratio != c.ratioFirst {
		c.ratioUniform = false
	}
	c.ratioAir += ratio * float64(air)
	if c.OnWindow != nil {
		obs.AirBytes, obs.Ratio, obs.Messages = air, ratio, msgs
		c.OnWindow(obs)
	}
	return ratio, true
}

// windowIndex is the zero-based index of the window being priced (its
// start is windowStart - window: beginWindow has already advanced the
// clock past it). It keys the burst model's per-window loss chain, and is
// identical across placements because the window clock is.
func (c *coordinator) windowIndex() int {
	return int(math.Round(c.windowStart/c.window)) - 1
}

// PeakBuffered reports the most arrivals ever buffered at once — the
// streaming path's working-set bound, a function of the window and the
// arrival rate but not of the trace duration.
func (c *coordinator) PeakBuffered() int { return c.peakBuffered }

// freeze starts a terminal Snapshot of the named driver: it fails on a
// closed session, or — before committing to teardown, so the caller can
// still Close normally — on a graph without snapshot hooks; then it
// closes the session.
func (c *coordinator) freeze(driver string) error {
	if c.closed {
		return fmt.Errorf("runtime: Snapshot on a closed %s", driver)
	}
	if err := checkSnapshotable(&c.cfg); err != nil {
		return err
	}
	c.closed = true
	return nil
}

// beginClose marks the session closed, flushes the window in progress,
// and returns the last batch: the reduce rounds still pending (some node
// never emitted past them), appended to buf's storage (nil: fresh). The
// driver delivers it over the final window's span — no further simulated
// time exists to spread it over. buf runs after the flush, so a pipelined
// driver can hand over the next window's storage.
func (c *coordinator) beginClose(buf func() []message) ([]message, error) {
	c.closed = true
	if c.buffered > 0 {
		if err := c.flush(); err != nil {
			return nil, err
		}
	}
	var out []message
	if buf != nil {
		out = buf()
	}
	return c.agg.flushAll(&c.cfg, &c.res, out), nil
}

// finish completes the Result once the driver has summed per-node busy
// seconds into res.NodeCPU (in global node order: float64 addition order
// is part of byte-identity) and collected its delivery counters.
func (c *coordinator) finish() *Result {
	c.res.NodeCPU /= c.cfg.Duration * float64(c.cfg.Nodes)
	c.res.OfferedAirBytesPerSec = float64(c.totalAir) / c.cfg.Duration
	switch {
	case !c.sawWindow:
		c.res.DeliveryRatio = c.ch.DeliveryRatio(0)
	case c.ratioUniform:
		// Every window priced identically — report that exact ratio (the
		// steady-rate case, byte-identical to the batch path's).
		c.res.DeliveryRatio = c.ratioFirst
	default:
		c.res.DeliveryRatio = c.ratioAir / float64(c.totalAir)
	}
	res := c.res
	return &res
}

// snap freezes the coordinator's own state into a session snapshot: the
// run identity, the clock, the ratio bookkeeping, the carried counters,
// every node's buffered arrivals and the pending reduce rounds. The
// driver adds the node sides and the delivery state.
func (c *coordinator) snap(eidx map[*dataflow.Edge]int) (*sessionSnap, error) {
	cfg := &c.cfg
	snap := &sessionSnap{
		hash: cfg.Graph.StructuralHash(), platform: cfg.Platform.Name, nodes: cfg.Nodes,
		duration: cfg.Duration, seed: cfg.Seed, window: c.window,
		lastTime: c.lastTime, windowStart: c.windowStart, lastSpan: c.lastSpan,
		peakBuffered: int64(c.peakBuffered), totalAir: int64(c.totalAir),
		ratioFirst: c.ratioFirst, ratioAir: c.ratioAir,
		ratioUniform: c.ratioUniform, sawWindow: c.sawWindow,
		res:     c.res,
		perNode: make([]nodeSnap, cfg.Nodes),
	}
	for _, op := range cfg.Graph.Operators() {
		if cfg.OnNode[op.ID()] {
			snap.onNode = append(snap.onNode, op.ID())
		}
	}
	sort.Ints(snap.onNode)
	for n, buf := range c.buf {
		for _, a := range buf {
			enc, err := wire.Marshal(a.v)
			if err != nil {
				return nil, fmt.Errorf("runtime: buffered arrival at node %d does not marshal: %w", n, err)
			}
			snap.perNode[n].arrivals = append(snap.perNode[n].arrivals, arrivalSnap{t: a.t, src: a.src.ID(), blob: enc})
		}
	}
	var err error
	snap.agg, err = c.agg.snap(eidx)
	return snap, err
}

// resume decodes a session snapshot, checks it against the run, and
// loads the coordinator's own state from it; the decoded form returns for
// the driver's share. The snapshot's carried delivery counters fold into
// the partial Result here, exactly once: restored delivery plans and
// hosts add only post-resume deltas.
func (c *coordinator) resume(data []byte) (*sessionSnap, error) {
	snap, err := decodeSessionSnap(c.cfg.Graph, data)
	if err != nil {
		return nil, err
	}
	if err := snap.check(&c.cfg, c.window); err != nil {
		return nil, err
	}
	c.lastTime, c.windowStart, c.lastSpan = snap.lastTime, snap.windowStart, snap.lastSpan
	c.peakBuffered, c.totalAir = int(snap.peakBuffered), int(snap.totalAir)
	c.ratioFirst, c.ratioAir = snap.ratioFirst, snap.ratioAir
	c.ratioUniform, c.sawWindow = snap.ratioUniform, snap.sawWindow
	c.res = snap.res
	c.res.MsgsReceived += snap.shard.MsgsReceived
	c.res.DeliveredBytes += snap.shard.DeliveredBytes
	c.res.ServerEmits += snap.shard.ServerEmits
	for n := range snap.perNode {
		for _, a := range snap.perNode[n].arrivals {
			src := c.cfg.Graph.ByID(a.src)
			if src == nil || !c.sources[src] {
				return nil, fmt.Errorf("runtime: snapshot buffered arrival at non-source operator %d", a.src)
			}
			v, _, err := wire.Unmarshal(a.blob)
			if err != nil {
				return nil, err
			}
			c.buf[n] = append(c.buf[n], arrival{t: a.t, src: src, v: v})
			c.buffered++
		}
	}
	if c.buffered > c.peakBuffered {
		c.peakBuffered = c.buffered
	}
	return snap, restoreAggFromSnap(&c.cfg, c.agg, snap.agg)
}
