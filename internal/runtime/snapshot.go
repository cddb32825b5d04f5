package runtime

import (
	"fmt"
	"sort"

	"wishbone/internal/dataflow"
	"wishbone/internal/netsim"
	"wishbone/internal/wire"
)

// Serializable simulation state. A streaming Session (and a distributed
// ShardHost, which reuses the same pieces) can be frozen at a window
// boundary into a versioned byte snapshot and restored in a fresh process
// — same or different host — with byte-identical continuation: the
// snapshot pins every accumulator that feeds the Result (including
// floating-point ones, saved bit-exact), every piece of cross-window
// state (operator states via the dataflow.Operator SaveState hooks,
// reassembler partials, loss-RNG positions, pending reduce rounds), and
// the buffered arrivals of the window in progress.
//
// The layout is placement-independent: per-origin server state is keyed
// by origin node, not by shard, so a snapshot taken at Shards=1 restores
// into a Shards=8 session (or a different host of a distributed run) and
// still produces the byte-identical Result — the same per-origin
// independence argument that makes sharded delivery exact in the first
// place (see shard.go).

// ShardState is the serializable server-side delivery state of a shard
// set: the per-origin reassembly streams, loss-sampler positions and
// relocated-operator states for every origin the set has seen, plus the
// carried delivery counters and — for unshardable partitions — the
// stateful Server-namespace operator states of the single shard engine.
type ShardState struct {
	MsgsReceived   int
	DeliveredBytes int
	ServerEmits    int
	Origins        []OriginState
	Server         []OpState
}

// OriginState is one origin's server-side state (origin AggregateOrigin
// carries the in-network aggregates' streams).
type OriginState struct {
	Origin  int
	Draws   uint64       // loss-sampler position in the origin's RNG stream
	Streams []EdgeStream // in-flight reassembler partials, by dense edge index
	Ops     []OpState    // relocated node-operator states (§2.1.1)
}

// EdgeStream is one (origin, edge) reassembly stream's partial element.
type EdgeStream struct {
	Edge int
	Data []byte
}

// OpState is one operator's serialized private state.
type OpState struct {
	Op   int
	Data []byte
}

func (st *ShardState) save(w *wire.SnapshotWriter) {
	w.Int(int64(st.MsgsReceived))
	w.Int(int64(st.DeliveredBytes))
	w.Int(int64(st.ServerEmits))
	w.Uvarint(uint64(len(st.Origins)))
	for i := range st.Origins {
		o := &st.Origins[i]
		w.Int(int64(o.Origin))
		w.Uvarint(o.Draws)
		w.Uvarint(uint64(len(o.Streams)))
		for _, es := range o.Streams {
			w.Uvarint(uint64(es.Edge))
			w.Blob(es.Data)
		}
		saveOpStates(w, o.Ops)
	}
	saveOpStates(w, st.Server)
}

// loadShardState reads a ShardState, checking every origin against the
// run's nodes and every stream edge against the graph.
func loadShardState(r *wire.SnapshotReader, nodes, nEdges int) (*ShardState, error) {
	st := &ShardState{
		MsgsReceived:   int(r.Int()),
		DeliveredBytes: int(r.Int()),
		ServerEmits:    int(r.Int()),
	}
	st.Origins = make([]OriginState, r.Count())
	for i := range st.Origins {
		o := &st.Origins[i]
		o.Origin = int(r.Int())
		o.Draws = r.Uvarint()
		o.Streams = make([]EdgeStream, r.Count())
		for j := range o.Streams {
			o.Streams[j].Edge = int(r.Uvarint())
			o.Streams[j].Data = append([]byte(nil), r.Blob()...)
			if e := o.Streams[j].Edge; e < 0 || e >= nEdges {
				return nil, malformed("reassembly stream on edge %d of %d", e, nEdges)
			}
		}
		o.Ops = loadOpStates(r)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if o.Origin != AggregateOrigin && (o.Origin < 0 || o.Origin >= nodes) {
			return nil, malformed("origin %d outside [0,%d)", o.Origin, nodes)
		}
	}
	st.Server = loadOpStates(r)
	return st, r.Err()
}

func saveOpStates(w *wire.SnapshotWriter, ops []OpState) {
	w.Uvarint(uint64(len(ops)))
	for _, os := range ops {
		w.Uvarint(uint64(os.Op))
		w.Blob(os.Data)
	}
}

func loadOpStates(r *wire.SnapshotReader) []OpState {
	ops := make([]OpState, r.Count())
	for i := range ops {
		ops[i].Op = int(r.Uvarint())
		ops[i].Data = append([]byte(nil), r.Blob()...)
	}
	return ops
}

// checkSnapshotable verifies every stateful operator in the graph carries
// snapshot hooks, so Snapshot and ResumeSession fail deterministically on
// the first call rather than only once some state happens to exist.
func checkSnapshotable(cfg *Config) error {
	for _, op := range cfg.Graph.Operators() {
		if op.Stateful && op.NewState != nil && (op.SaveState == nil || op.LoadState == nil) {
			return fmt.Errorf("runtime: operator %s is stateful but has no snapshot hooks (SaveState/LoadState); its graph cannot be snapshotted", op)
		}
	}
	return nil
}

// saveOperatorState runs one operator's SaveState hook, failing with the
// operator's name when the hook is missing — the caller's graph simply
// does not support snapshots until it grows one.
func saveOperatorState(op *dataflow.Operator, st any) ([]byte, error) {
	if op.SaveState == nil {
		return nil, fmt.Errorf("runtime: operator %s is stateful but has no SaveState hook; its graph cannot be snapshotted", op)
	}
	return op.SaveState(st)
}

func loadOperatorState(op *dataflow.Operator, data []byte) (any, error) {
	if op.LoadState == nil {
		return nil, fmt.Errorf("runtime: operator %s has no LoadState hook", op)
	}
	return op.LoadState(data)
}

// snapshotState extracts the plan's serializable state. The plan must be
// quiescent (no delivery in flight) and compiled-engine.
func (d *deliveryPlan) snapshotState(cfg *Config) (*ShardState, error) {
	st := &ShardState{}
	origins := make(map[int]*OriginState)
	originOf := func(id int) *OriginState {
		o := origins[id]
		if o == nil {
			o = &OriginState{Origin: id}
			origins[id] = o
		}
		return o
	}
	eidx := edgeIndexes(cfg)
	for _, sh := range d.shards {
		srv, ok := sh.engine.(*compiledServer)
		if !ok {
			return nil, fmt.Errorf("runtime: snapshot requires the compiled engine")
		}
		st.MsgsReceived += sh.res.MsgsReceived
		st.DeliveredBytes += sh.res.DeliveredBytes
		st.ServerEmits += sh.engine.emits()
		for id, sam := range sh.rng {
			originOf(id).Draws = sam.DrawCount()
		}
		for key, re := range sh.reasm {
			w := wire.NewSnapshotWriter()
			re.SaveSnapshot(w)
			originOf(key.node).Streams = append(originOf(key.node).Streams,
				EdgeStream{Edge: eidx[key.edge], Data: w.Bytes()})
		}
		for opID, tbl := range srv.states {
			op := cfg.Graph.ByID(opID)
			for nodeID, state := range tbl {
				data, err := saveOperatorState(op, state)
				if err != nil {
					return nil, err
				}
				originOf(nodeID).Ops = append(originOf(nodeID).Ops, OpState{Op: opID, Data: data})
			}
		}
		// Stateful Server-namespace operators (unshardable partitions run
		// exactly one shard, so this captures the single global state set).
		for _, op := range cfg.Graph.Operators() {
			if cfg.OnNode[op.ID()] || !op.Stateful || op.NewState == nil || op.NS != dataflow.NSServer {
				continue
			}
			data, err := saveOperatorState(op, srv.inst.State(op))
			if err != nil {
				return nil, err
			}
			st.Server = append(st.Server, OpState{Op: op.ID(), Data: data})
		}
	}
	for _, o := range origins {
		sort.Slice(o.Streams, func(i, j int) bool { return o.Streams[i].Edge < o.Streams[j].Edge })
		sort.Slice(o.Ops, func(i, j int) bool { return o.Ops[i].Op < o.Ops[j].Op })
		st.Origins = append(st.Origins, *o)
	}
	sort.Slice(st.Origins, func(i, j int) bool { return st.Origins[i].Origin < st.Origins[j].Origin })
	sort.Slice(st.Server, func(i, j int) bool { return st.Server[i].Op < st.Server[j].Op })
	return st, nil
}

// restoreState rebuilds a fresh plan's per-origin state from a snapshot.
// The carried counters (MsgsReceived, DeliveredBytes, ServerEmits) are NOT
// folded into the shards — exactly one caller must add them to its partial
// Result, since a snapshot may be split across several restoring plans
// (distributed placement) but its counters must be counted once.
func (d *deliveryPlan) restoreState(cfg *Config, st *ShardState) error {
	edges := cfg.Graph.Edges()
	for i := range st.Origins {
		o := &st.Origins[i]
		sh := d.shards[d.shardFor(o.Origin)]
		if o.Draws > 0 {
			sh.sampler(o.Origin).SeekTo(netsim.NodeSeed(cfg.Seed, o.Origin), o.Draws)
		}
		for _, es := range o.Streams {
			r, err := wire.NewSnapshotReader(es.Data)
			if err != nil {
				return err
			}
			re := &wire.Reassembler{}
			if err := re.LoadSnapshot(r); err != nil {
				return err
			}
			sh.reasm[reasmKey{node: o.Origin, edge: edges[es.Edge]}] = re
		}
		if len(o.Ops) > 0 {
			srv, ok := sh.engine.(*compiledServer)
			if !ok {
				return fmt.Errorf("runtime: restore requires the compiled engine")
			}
			for _, os := range o.Ops {
				op := cfg.Graph.ByID(os.Op)
				if op == nil {
					return fmt.Errorf("runtime: snapshot references operator %d", os.Op)
				}
				state, err := loadOperatorState(op, os.Data)
				if err != nil {
					return err
				}
				tbl := srv.states[os.Op]
				if tbl == nil {
					return fmt.Errorf("runtime: snapshot state for %s, which is not relocated in this partition", op)
				}
				tbl[o.Origin] = state
			}
		}
	}
	if len(st.Server) > 0 {
		if len(d.shards) != 1 {
			return fmt.Errorf("runtime: snapshot carries global server state but the plan has %d shards", len(d.shards))
		}
		srv, ok := d.shards[0].engine.(*compiledServer)
		if !ok {
			return fmt.Errorf("runtime: restore requires the compiled engine")
		}
		for _, os := range st.Server {
			op := cfg.Graph.ByID(os.Op)
			if op == nil {
				return fmt.Errorf("runtime: snapshot references operator %d", os.Op)
			}
			state, err := loadOperatorState(op, os.Data)
			if err != nil {
				return err
			}
			srv.inst.SetState(op, state)
		}
	}
	return nil
}

// edgeIndexes maps edge pointers to their dense index in Graph.Edges() —
// the portable edge naming every serialized frame uses.
func edgeIndexes(cfg *Config) map[*dataflow.Edge]int {
	edges := cfg.Graph.Edges()
	m := make(map[*dataflow.Edge]int, len(edges))
	for i, e := range edges {
		m[e] = i
	}
	return m
}

// Snapshot freezes the session at its current window boundary and returns
// the versioned byte encoding. The call is terminal: the pipeline joins,
// pooled instances and arenas are released, and the session is closed —
// continuing the run means ResumeSession in this or any other process.
// Arrivals buffered for the window in progress are part of the snapshot,
// so callers may snapshot at any point between Offers; internally the
// persistent state is always window-aligned.
//
// The resumed run's Results are byte-identical to the uninterrupted one
// at any Shards/Workers/pipelining setting on either side.
func (s *Session) Snapshot() ([]byte, error) {
	if err := s.freeze("Session"); err != nil {
		return nil, err
	}
	defer s.release()
	if s.pipe != nil {
		// Joining the pipeline drains every in-flight delivery; afterwards
		// all state is at the last flushed window boundary.
		if err := s.pipe.shutdown(); err != nil {
			return nil, err
		}
	}
	eidx := edgeIndexes(&s.cfg)
	snap, err := s.snap(eidx)
	if err != nil {
		return nil, err
	}
	for n := range snap.perNode {
		if err := snapNodeSide(&snap.perNode[n], &s.cfg, s.prog, eidx, s.nodes[n], s.insts[n]); err != nil {
			return nil, err
		}
	}
	if snap.shard, err = s.plan.snapshotState(&s.cfg); err != nil {
		return nil, err
	}
	return encodeSessionSnap(snap), nil
}

// ResumeSession rebuilds a Session from a Snapshot. cfg must describe the
// same run (graph structure, cut, platform, nodes, duration, seed,
// window); the placement knobs — Shards, Workers — are free, because the
// snapshot's layout is placement-independent.
func ResumeSession(cfg Config, data []byte) (*Session, error) {
	if err := checkSnapshotable(&cfg); err != nil {
		return nil, err
	}
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	snap, err := s.resume(data)
	for n := 0; err == nil && n < len(snap.perNode); n++ {
		err = applyNodeSnap(&s.cfg, s.prog, &snap.perNode[n], s.nodes[n], s.insts[n])
	}
	if err == nil {
		err = s.plan.restoreState(&s.cfg, snap.shard)
	}
	if err != nil {
		s.abort()
		return nil, err
	}
	return s, nil
}

// snapNodeSide freezes one node's simulator, sender sequence counters and
// stateful operator states into ns (its buffered arrivals belong to the
// coordinator).
func snapNodeSide(ns *nodeSnap, cfg *Config, prog *dataflow.Program, eidx map[*dataflow.Edge]int,
	sim *nodeSim, inst *dataflow.Instance) error {
	ns.busyUntil, ns.busy = sim.busyUntil, sim.busy
	ns.inputEvents, ns.processedEvents = int64(sim.inputEvents), int64(sim.processedEvents)
	for e, q := range sim.s.seqs {
		ns.seqs = append(ns.seqs, seqSnap{edge: eidx[e], seq: q})
	}
	sort.Slice(ns.seqs, func(i, j int) bool { return ns.seqs[i].edge < ns.seqs[j].edge })
	for _, id := range prog.StatefulOps() {
		op := cfg.Graph.ByID(id)
		data, err := saveOperatorState(op, inst.State(op))
		if err != nil {
			return err
		}
		ns.ops = append(ns.ops, OpState{Op: id, Data: data})
	}
	return nil
}

// applyNodeSnap loads a decoded node side into a live simulator/instance
// pair.
func applyNodeSnap(cfg *Config, prog *dataflow.Program, snap *nodeSnap, ns *nodeSim, inst *dataflow.Instance) error {
	edges := cfg.Graph.Edges()
	ns.busyUntil = snap.busyUntil
	ns.busy = snap.busy
	ns.inputEvents = int(snap.inputEvents)
	ns.processedEvents = int(snap.processedEvents)
	if len(snap.seqs) > 0 {
		ns.s.seqs = make(map[*dataflow.Edge]uint16, len(snap.seqs))
		for _, se := range snap.seqs {
			ns.s.seqs[edges[se.edge]] = se.seq
		}
	}
	for _, os := range snap.ops {
		op := cfg.Graph.ByID(os.Op)
		if op == nil || !prog.Included(op) {
			return fmt.Errorf("runtime: snapshot node state for operator %d outside the node partition", os.Op)
		}
		state, err := loadOperatorState(op, os.Data)
		if err != nil {
			return err
		}
		inst.SetState(op, state)
	}
	return nil
}

// snap freezes the cross-window reduce-aggregation state: per edge (in
// deterministic first-seen order) the per-node round counts, the flush
// watermark, the fragmentation sequence, and every pending round's
// combined value.
func (a *reduceAggregator) snap(eidx map[*dataflow.Edge]int) ([]aggEdgeSnap, error) {
	snaps := make([]aggEdgeSnap, 0, len(a.edgeOrder))
	for _, e := range a.edgeOrder {
		ae := aggEdgeSnap{edge: eidx[e], flushed: int64(a.flushed[e]), seq: a.seq[e]}
		for _, c := range a.counts[e] {
			ae.counts = append(ae.counts, int64(c))
		}
		for _, m := range a.pending[e] {
			if m == nil {
				ae.pending = append(ae.pending, pendSnap{})
				continue
			}
			enc, err := wire.Marshal(m.value)
			if err != nil {
				return nil, fmt.Errorf("runtime: pending aggregate on %s→%s does not marshal: %w",
					m.edge.From, m.edge.To, err)
			}
			ae.pending = append(ae.pending, pendSnap{present: true, time: m.time, blob: enc})
		}
		snaps = append(snaps, ae)
	}
	return snaps, nil
}

// restoreAggFromSnap loads decoded aggregator state into a live
// reduceAggregator.
func restoreAggFromSnap(cfg *Config, a *reduceAggregator, snaps []aggEdgeSnap) error {
	edges := cfg.Graph.Edges()
	for i := range snaps {
		ae := &snaps[i]
		e := edges[ae.edge]
		a.edgeOrder = append(a.edgeOrder, e)
		counts := make([]int, len(ae.counts))
		for j, c := range ae.counts {
			counts[j] = int(c)
		}
		a.counts[e] = counts
		a.flushed[e] = int(ae.flushed)
		a.seq[e] = ae.seq
		pend := make([]*message, 0, len(ae.pending))
		for j := range ae.pending {
			p := &ae.pending[j]
			if !p.present {
				pend = append(pend, nil)
				continue
			}
			v, _, err := wire.Unmarshal(p.blob)
			if err != nil {
				return err
			}
			pend = append(pend, &message{time: p.time, nodeID: AggregateOrigin, edge: e, value: v})
		}
		a.pending[e] = pend
	}
	return nil
}

// MigrateSnapshot rewrites a Session snapshot taken on one cut into a
// snapshot valid for another cut of the same graph — the state-handoff
// step behind mid-stream re-partitioning (§2.1.1 relocation, live). The
// clock, Result accumulators, buffered arrivals and loss-RNG positions are
// cut-independent and carry over unchanged; everything keyed to the cut
// moves or resets:
//
//   - Stateful node operators that change sides carry their state with
//     them: node→server moves a node's private state into the origin's
//     relocated-state row; server→node moves each origin's row back into
//     that node's instance. Rows an engine never materialized stay absent
//     and re-initialize fresh on first touch — deterministically, the same
//     way a run that started on the new cut would.
//   - Sender sequence counters and in-flight reassembly partials survive
//     only on edges that are cut under both cuts. A newly cut edge starts
//     its sequence stream at zero; an edge no longer cut abandons its
//     partials (the fragments in flight belong to a link that no longer
//     exists).
//   - Pending reduce rounds survive only on edges still aggregated under
//     the new cut; abandoned rounds' contributions were already un-counted
//     when they entered the aggregator, so the books stay balanced.
//   - A relocated operator's AggregateOrigin state row (driven by
//     in-network aggregates) is dropped when the operator moves back onto
//     the nodes: per-node execution has no aggregate-origin row to map it
//     to.
//
// Stateful server-namespace operators cannot change sides: their state is
// global, not per-origin, so neither direction has a well-defined handoff.
//
// The migrated snapshot resumes through ResumeSession (or a distributed
// placement) with cfg.OnNode = newOnNode; Shards/Workers/pipelining stay
// free. By construction, resuming it IS the run that "started on the new
// cut at that boundary" — the replan parity tests pin byte-identity
// between the in-place handoff and an external migrate+resume at any
// placement.
func MigrateSnapshot(g *dataflow.Graph, data []byte, newOnNode map[int]bool) ([]byte, error) {
	snap, err := decodeSessionSnap(g, data)
	if err != nil {
		return nil, err
	}
	oldOnNode := make(map[int]bool, len(snap.onNode))
	for _, id := range snap.onNode {
		oldOnNode[id] = true
	}
	for _, op := range g.Operators() {
		if oldOnNode[op.ID()] == newOnNode[op.ID()] {
			continue
		}
		if op.Stateful && op.NewState != nil && op.NS == dataflow.NSServer {
			return nil, fmt.Errorf("runtime: cannot migrate: stateful server-namespace operator %s changes sides", op)
		}
	}
	edges := g.Edges()
	// captured: the edge crosses the cut node→server, so its elements are
	// sequenced by the sender and reassembled server-side. aggregated:
	// additionally folded through in-network reduce rounds, which re-key
	// its streams and states to AggregateOrigin.
	captured := func(onNode map[int]bool, ei int) bool {
		e := edges[ei]
		return onNode[e.From.ID()] && !onNode[e.To.ID()]
	}
	aggregated := func(onNode map[int]bool, ei int) bool {
		e := edges[ei]
		return captured(onNode, ei) && e.From.Reduce && e.From.Combine != nil
	}

	// Node sides: filter sender sequences to still-cut edges; split each
	// node's operator states into stay-on-node vs relocate-to-server.
	relocating := make(map[int][]OpState) // origin → states moving node→server
	for n := range snap.perNode {
		ns := &snap.perNode[n]
		seqs := ns.seqs[:0]
		for _, se := range ns.seqs {
			if captured(newOnNode, se.edge) {
				seqs = append(seqs, se)
			}
		}
		ns.seqs = seqs
		keep := ns.ops[:0]
		for _, os := range ns.ops {
			if newOnNode[os.Op] {
				keep = append(keep, os)
			} else {
				relocating[n] = append(relocating[n], os)
			}
		}
		ns.ops = keep
	}

	// Origin states: filter reassembly streams by the new cut, move
	// relocated rows whose operator returns to the nodes back into the
	// node sides, then merge the freshly relocating states in.
	st := snap.shard
	byOrigin := make(map[int]*OriginState, len(st.Origins))
	for i := range st.Origins {
		o := st.Origins[i]
		var streams []EdgeStream
		for _, es := range o.Streams {
			if !captured(newOnNode, es.Edge) {
				continue
			}
			// Aggregated edges reassemble under AggregateOrigin, plain cut
			// edges under their contributor — a stream survives only where
			// the new cut still files it.
			if aggregated(newOnNode, es.Edge) != (o.Origin == AggregateOrigin) {
				continue
			}
			streams = append(streams, es)
		}
		o.Streams = streams
		var ops []OpState
		for _, os := range o.Ops {
			if !newOnNode[os.Op] {
				ops = append(ops, os)
				continue
			}
			if o.Origin == AggregateOrigin {
				continue // no per-node home for an aggregate-driven row
			}
			node := &snap.perNode[o.Origin]
			node.ops = append(node.ops, os)
		}
		o.Ops = ops
		cp := o
		byOrigin[o.Origin] = &cp
	}
	for n, states := range relocating {
		o := byOrigin[n]
		if o == nil {
			o = &OriginState{Origin: n}
			byOrigin[n] = o
		}
		o.Ops = append(o.Ops, states...)
	}
	st.Origins = st.Origins[:0]
	for _, o := range byOrigin {
		if o.Draws > 0 || len(o.Streams) > 0 || len(o.Ops) > 0 {
			st.Origins = append(st.Origins, *o)
		}
	}
	for i := range st.Origins {
		o := &st.Origins[i]
		sort.Slice(o.Streams, func(a, b int) bool { return o.Streams[a].Edge < o.Streams[b].Edge })
		sort.Slice(o.Ops, func(a, b int) bool { return o.Ops[a].Op < o.Ops[b].Op })
	}
	sort.Slice(st.Origins, func(a, b int) bool { return st.Origins[a].Origin < st.Origins[b].Origin })
	for n := range snap.perNode {
		ns := &snap.perNode[n]
		sort.Slice(ns.ops, func(a, b int) bool { return ns.ops[a].Op < ns.ops[b].Op })
	}

	// Aggregator: rounds survive only on edges still aggregated.
	aggEdges := snap.agg[:0]
	for _, ae := range snap.agg {
		if aggregated(newOnNode, ae.edge) {
			aggEdges = append(aggEdges, ae)
		}
	}
	snap.agg = aggEdges

	var onNode []int
	for _, op := range g.Operators() {
		if newOnNode[op.ID()] {
			onNode = append(onNode, op.ID())
		}
	}
	sort.Ints(onNode)
	snap.onNode = onNode
	return encodeSessionSnap(snap), nil
}

// The snapshot codec. Every snapshot and checkpoint passes through the
// struct forms below, decoded in full before any of it is applied:
// writers fill them (the coordinator core its own fields, the drivers
// node sides and delivery state) and encode through encodeSessionSnap or
// encodeHostSnap, both built on encodeNodeSide and ShardState.save;
// readers decode through decodeSessionSnap or decodeHostSnap and apply
// through the coordinator's restore, applyNodeSnap, restoreAggFromSnap
// and deliveryPlan.restoreState. Every count the decoders read is bounded
// by the bytes left and every index is range-checked, so a truncated or
// hostile blob fails with wire.ErrMalformedSnapshot rather than sizing an
// allocation or indexing out of range.
//
// A session snapshot is, in order: the run identity (graph structural
// hash, the sorted on-node operator IDs, platform, nodes, duration, seed,
// window), the clock and ratio bookkeeping, the seven carried Result
// counters, one node side plus its buffered arrivals per node, the
// pending reduce rounds per aggregated edge, and the ShardState. A host
// blob is the host's send counters, its origins each with a node side,
// and its ShardState.

// sessionSnap is a session snapshot held fully decoded. Field order
// mirrors the encoding.
type sessionSnap struct {
	hash     string
	onNode   []int
	platform string
	nodes    int
	duration float64
	seed     int64
	window   float64

	lastTime, windowStart, lastSpan float64
	peakBuffered, totalAir          int64
	ratioFirst, ratioAir            float64
	ratioUniform, sawWindow         bool
	res                             Result // the integer counters only

	perNode []nodeSnap
	agg     []aggEdgeSnap
	shard   *ShardState
}

type nodeSnap struct {
	busyUntil, busy              float64
	inputEvents, processedEvents int64
	seqs                         []seqSnap
	ops                          []OpState
	arrivals                     []arrivalSnap
}

type seqSnap struct {
	edge int
	seq  uint16
}

type arrivalSnap struct {
	t    float64
	src  int
	blob []byte
}

type aggEdgeSnap struct {
	edge    int
	counts  []int64
	flushed int64
	seq     uint16
	pending []pendSnap
}

type pendSnap struct {
	present bool
	time    float64
	blob    []byte
}

// hostSnap is one shard host's frozen contribution: its send-side
// counters, its per-origin node sides, and its delivery plan's state.
type hostSnap struct {
	msgsSent     int64
	payloadBytes int64
	origins      []int
	sides        map[int]nodeSnap
	shard        *ShardState
}

// malformed reports a structurally invalid snapshot.
func malformed(format string, args ...any) error {
	return fmt.Errorf("runtime: snapshot "+format+": %w", append(args, wire.ErrMalformedSnapshot)...)
}

// counters lists the Result's carried integer counters in snapshot order.
func (r *Result) counters() [7]*int {
	return [7]*int{&r.InputEvents, &r.ProcessedEvents, &r.MsgsSent, &r.MsgsReceived,
		&r.PayloadBytes, &r.DeliveredBytes, &r.ServerEmits}
}

// check validates a decoded snapshot against a run Config: the cut, the
// platform and the simulation parameters that shape every downstream
// byte (the graph is pinned at decode).
func (snap *sessionSnap) check(cfg *Config, window float64) error {
	saved := make(map[int]bool, len(snap.onNode))
	for _, id := range snap.onNode {
		saved[id] = true
	}
	for _, op := range cfg.Graph.Operators() {
		if cfg.OnNode[op.ID()] != saved[op.ID()] {
			return fmt.Errorf("runtime: snapshot is of a different cut (operator %s changed sides)", op)
		}
	}
	if snap.platform != cfg.Platform.Name {
		return fmt.Errorf("runtime: snapshot platform %q, config platform %q", snap.platform, cfg.Platform.Name)
	}
	if snap.nodes != cfg.Nodes {
		return fmt.Errorf("runtime: snapshot has %d nodes, config %d", snap.nodes, cfg.Nodes)
	}
	if snap.duration != cfg.Duration {
		return fmt.Errorf("runtime: snapshot duration %g, config %g", snap.duration, cfg.Duration)
	}
	if snap.seed != cfg.Seed {
		return fmt.Errorf("runtime: snapshot seed %d, config %d", snap.seed, cfg.Seed)
	}
	if snap.window != window {
		return fmt.Errorf("runtime: snapshot window %g, config %g", snap.window, window)
	}
	return nil
}

func encodeSessionSnap(snap *sessionSnap) []byte {
	w := wire.NewSnapshotWriter()
	w.String(snap.hash)
	w.Uvarint(uint64(len(snap.onNode)))
	for _, id := range snap.onNode {
		w.Uvarint(uint64(id))
	}
	w.String(snap.platform)
	w.Int(int64(snap.nodes))
	w.F64(snap.duration)
	w.Int(snap.seed)
	w.F64(snap.window)

	w.F64(snap.lastTime)
	w.F64(snap.windowStart)
	w.F64(snap.lastSpan)
	w.Int(snap.peakBuffered)
	w.Int(snap.totalAir)
	w.F64(snap.ratioFirst)
	w.F64(snap.ratioAir)
	w.Bool(snap.ratioUniform)
	w.Bool(snap.sawWindow)
	for _, c := range snap.res.counters() {
		w.Int(int64(*c))
	}

	for n := range snap.perNode {
		ns := &snap.perNode[n]
		encodeNodeSide(w, ns)
		w.Uvarint(uint64(len(ns.arrivals)))
		for _, a := range ns.arrivals {
			w.F64(a.t)
			w.Uvarint(uint64(a.src))
			w.Blob(a.blob)
		}
	}

	w.Uvarint(uint64(len(snap.agg)))
	for i := range snap.agg {
		ae := &snap.agg[i]
		w.Uvarint(uint64(ae.edge))
		w.Uvarint(uint64(len(ae.counts)))
		for _, c := range ae.counts {
			w.Int(c)
		}
		w.Int(ae.flushed)
		w.U16(ae.seq)
		w.Uvarint(uint64(len(ae.pending)))
		for _, p := range ae.pending {
			w.Bool(p.present)
			if p.present {
				w.F64(p.time)
				w.Blob(p.blob)
			}
		}
	}

	snap.shard.save(w)
	return w.Bytes()
}

func decodeSessionSnap(g *dataflow.Graph, data []byte) (*sessionSnap, error) {
	r, err := wire.NewSnapshotReader(data)
	if err != nil {
		return nil, err
	}
	snap := &sessionSnap{hash: r.String()}
	if snap.hash != g.StructuralHash() {
		return nil, fmt.Errorf("runtime: snapshot is of a different graph (structural hash mismatch)")
	}
	snap.onNode = make([]int, r.Count())
	for i := range snap.onNode {
		snap.onNode[i] = int(r.Uvarint())
	}
	snap.platform = r.String()
	snap.nodes = int(r.Int())
	snap.duration, snap.seed, snap.window = r.F64(), r.Int(), r.F64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if snap.nodes <= 0 || snap.nodes > 1<<20 {
		return nil, malformed("node count %d", snap.nodes)
	}

	snap.lastTime, snap.windowStart, snap.lastSpan = r.F64(), r.F64(), r.F64()
	snap.peakBuffered, snap.totalAir = r.Int(), r.Int()
	snap.ratioFirst, snap.ratioAir = r.F64(), r.F64()
	snap.ratioUniform, snap.sawWindow = r.Bool(), r.Bool()
	for _, c := range snap.res.counters() {
		*c = int(r.Int())
	}

	// Node sides append one by one: the node count is not a byte-bounded
	// length, so a truncated blob must fail before the slice grows.
	nEdges := len(g.Edges())
	for n := 0; n < snap.nodes; n++ {
		ns, err := decodeNodeSide(r, nEdges)
		if err != nil {
			return nil, err
		}
		ns.arrivals = make([]arrivalSnap, r.Count())
		for i := range ns.arrivals {
			a := &ns.arrivals[i]
			a.t = r.F64()
			a.src = int(r.Uvarint())
			a.blob = append([]byte(nil), r.Blob()...)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		snap.perNode = append(snap.perNode, ns)
	}

	snap.agg = make([]aggEdgeSnap, r.Count())
	for i := range snap.agg {
		ae := &snap.agg[i]
		ae.edge = int(r.Uvarint())
		ae.counts = make([]int64, r.Count())
		for j := range ae.counts {
			ae.counts[j] = r.Int()
		}
		ae.flushed = r.Int()
		ae.seq = r.U16()
		ae.pending = make([]pendSnap, r.Count())
		for j := range ae.pending {
			p := &ae.pending[j]
			if p.present = r.Bool(); p.present {
				p.time = r.F64()
				p.blob = append([]byte(nil), r.Blob()...)
			}
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if ae.edge < 0 || ae.edge >= nEdges {
			return nil, malformed("aggregator edge %d of %d", ae.edge, nEdges)
		}
		// Rounds [flushed, flushed+len(pending)) are pending, and a node
		// that has emitted c rounds contributed to every round below c.
		if len(ae.counts) != snap.nodes || ae.flushed < 0 {
			return nil, malformed("aggregator edge %d: %d round counts for %d nodes, %d rounds flushed",
				ae.edge, len(ae.counts), snap.nodes, ae.flushed)
		}
		for _, c := range ae.counts {
			if c < 0 || c-ae.flushed > int64(len(ae.pending)) {
				return nil, malformed("aggregator edge %d: node round count %d outside [0,%d]",
					ae.edge, c, ae.flushed+int64(len(ae.pending)))
			}
		}
	}

	if snap.shard, err = loadShardState(r, snap.nodes, nEdges); err != nil {
		return nil, err
	}
	if !r.Done() {
		return nil, malformed("has trailing bytes")
	}
	return snap, nil
}

// encodeNodeSide writes one node side: the simulator's clock and
// counters, the sender sequence counters, and the stateful node
// operators' states.
func encodeNodeSide(w *wire.SnapshotWriter, ns *nodeSnap) {
	w.F64(ns.busyUntil)
	w.F64(ns.busy)
	w.Int(ns.inputEvents)
	w.Int(ns.processedEvents)
	w.Uvarint(uint64(len(ns.seqs)))
	for _, se := range ns.seqs {
		w.Uvarint(uint64(se.edge))
		w.U16(se.seq)
	}
	saveOpStates(w, ns.ops)
}

func decodeNodeSide(r *wire.SnapshotReader, nEdges int) (nodeSnap, error) {
	var ns nodeSnap
	ns.busyUntil = r.F64()
	ns.busy = r.F64()
	ns.inputEvents = r.Int()
	ns.processedEvents = r.Int()
	ns.seqs = make([]seqSnap, r.Count())
	for i := range ns.seqs {
		se := &ns.seqs[i]
		se.edge = int(r.Uvarint())
		se.seq = r.U16()
		if err := r.Err(); err != nil {
			return ns, err
		}
		if se.edge < 0 || se.edge >= nEdges {
			return ns, malformed("sender sequence on edge %d of %d", se.edge, nEdges)
		}
	}
	ns.ops = loadOpStates(r)
	return ns, r.Err()
}

func encodeHostSnap(hs *hostSnap) []byte {
	w := wire.NewSnapshotWriter()
	w.Int(hs.msgsSent)
	w.Int(hs.payloadBytes)
	w.Uvarint(uint64(len(hs.origins)))
	for _, n := range hs.origins {
		w.Int(int64(n))
		side := hs.sides[n]
		encodeNodeSide(w, &side)
	}
	hs.shard.save(w)
	return w.Bytes()
}

func decodeHostSnap(cfg *Config, data []byte) (*hostSnap, error) {
	r, err := wire.NewSnapshotReader(data)
	if err != nil {
		return nil, err
	}
	hs := &hostSnap{sides: make(map[int]nodeSnap)}
	hs.msgsSent = r.Int()
	hs.payloadBytes = r.Int()
	nOrigins := r.Count()
	nEdges := len(cfg.Graph.Edges())
	for i := 0; i < nOrigins; i++ {
		n := int(r.Int())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if n < 0 || n >= cfg.Nodes {
			return nil, malformed("host origin %d outside [0,%d)", n, cfg.Nodes)
		}
		side, err := decodeNodeSide(r, nEdges)
		if err != nil {
			return nil, err
		}
		hs.origins = append(hs.origins, n)
		hs.sides[n] = side
	}
	if hs.shard, err = loadShardState(r, cfg.Nodes, nEdges); err != nil {
		return nil, err
	}
	if !r.Done() {
		return nil, malformed("has trailing bytes after the host state")
	}
	return hs, nil
}
