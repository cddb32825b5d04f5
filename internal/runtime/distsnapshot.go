package runtime

import (
	"fmt"
	"sort"
)

// Distributed snapshot/handoff: a distributed run freezes into the SAME
// versioned session-snapshot encoding a single-host Session produces —
// the coordinator core contributes its global pieces (clock, ratio
// bookkeeping, buffered arrivals, reduce-aggregation rounds), the
// coordinator's plan the AggregateOrigin delivery state, and each host
// its per-origin node sides and delivery state. The result resumes
// anywhere: a local Session, the same placement, a different placement,
// or — after MigrateSnapshot — a different cut. Cross-host operator
// relocation is exactly this round trip.

// Snapshot freezes the host at the current window boundary and returns
// its contribution blob. Terminal, like Session.Snapshot: the host's
// instances release and further calls fail. The coordinator folds the
// blob into the full run snapshot (DistSession.Snapshot).
func (h *ShardHost) Snapshot() ([]byte, error) {
	if h.closed {
		return nil, fmt.Errorf("runtime: Snapshot on a closed ShardHost")
	}
	if len(h.held) > 0 {
		return nil, fmt.Errorf("runtime: Snapshot with a window awaiting DeliverWindow")
	}
	if err := checkSnapshotable(&h.cfg); err != nil {
		return nil, err
	}
	h.closed = true
	defer func() {
		h.release()
		h.plan.close()
	}()
	return h.encodeHostBlob()
}

// Checkpoint freezes the host's state blob at the current window
// boundary without disturbing the run: the encoding is the same as
// Snapshot's (the whole encode path is read-only), but the host keeps
// executing. The coordinator retains the blob so a replacement host can
// restore it after a failure (RestoreShardHostCheckpoint).
func (h *ShardHost) Checkpoint() ([]byte, error) {
	if h.closed {
		return nil, fmt.Errorf("runtime: Checkpoint on a closed ShardHost")
	}
	if len(h.held) > 0 {
		return nil, fmt.Errorf("runtime: Checkpoint with a window awaiting DeliverWindow")
	}
	if err := checkSnapshotable(&h.cfg); err != nil {
		return nil, err
	}
	return h.encodeHostBlob()
}

// encodeHostBlob freezes the host contribution shared by Snapshot and
// Checkpoint: send-side counters, per-origin node sides, and the delivery
// plan's state with any checkpoint-carried delivery counters folded in
// (so a chain of restores keeps reporting the full accrual).
func (h *ShardHost) encodeHostBlob() ([]byte, error) {
	hs := &hostSnap{
		msgsSent:     int64(h.res.MsgsSent),
		payloadBytes: int64(h.res.PayloadBytes),
		origins:      h.origins,
		sides:        make(map[int]nodeSnap, len(h.origins)),
	}
	for _, n := range h.origins {
		var side nodeSnap
		if err := snapNodeSide(&side, &h.cfg, h.prog, h.eidx, h.nodes[n], h.insts[n]); err != nil {
			return nil, err
		}
		hs.sides[n] = side
	}
	st, err := h.plan.snapshotState(&h.cfg)
	if err != nil {
		return nil, err
	}
	st.MsgsReceived += h.carriedRecv
	st.DeliveredBytes += h.carriedDelivered
	st.ServerEmits += h.carriedEmits
	hs.shard = st
	return encodeHostSnap(hs), nil
}

// RestoreShardHost builds a shard host whose owned origins resume from a
// full session snapshot (the coordinator ships every host the same
// bytes; each host restores only its origins' node sides and delivery
// state). The coordinator keeps the snapshot's clock, buffered arrivals
// and carried counters — a restored host starts its own counters at
// zero, exactly like the counter split in deliveryPlan.restoreState.
func RestoreShardHost(cfg Config, origins []int, data []byte) (*ShardHost, error) {
	return restoreShardHost(cfg, origins, func(h *ShardHost) error {
		snap, err := decodeSessionSnap(h.cfg.Graph, data)
		if err != nil {
			return err
		}
		// The window is the coordinator's to validate; hosts only pin the
		// cut/platform/run identity (snap.window self-compares).
		if err := snap.check(&h.cfg, snap.window); err != nil {
			return err
		}
		return h.restoreOwned(func(n int) nodeSnap { return snap.perNode[n] }, snap.shard)
	})
}

// RestoreShardHostCheckpoint builds a shard host resuming from a host
// checkpoint blob (ShardHost.Checkpoint) — the recovery path: the blob is
// one host's whole contribution, so unlike RestoreShardHost the restored
// host takes over the dead host's counters too (send-side into res,
// delivery-side as carried values folded in at Close and into future
// checkpoints). origins must be exactly the checkpoint's origin set — a
// host's counters are not splittable per origin, so a lost host's origins
// move to their new home together.
func RestoreShardHostCheckpoint(cfg Config, origins []int, data []byte) (*ShardHost, error) {
	return restoreShardHost(cfg, origins, func(h *ShardHost) error {
		hs, err := decodeHostSnap(&h.cfg, data)
		if err != nil {
			return err
		}
		if len(hs.origins) != len(h.origins) {
			return fmt.Errorf("runtime: checkpoint holds %d origins, host owns %d", len(hs.origins), len(h.origins))
		}
		for i, n := range hs.origins {
			if n != h.origins[i] {
				return fmt.Errorf("runtime: checkpoint origin set %v does not match host origins %v", hs.origins, h.origins)
			}
		}
		h.res.MsgsSent = int(hs.msgsSent)
		h.res.PayloadBytes = int(hs.payloadBytes)
		h.carriedRecv = hs.shard.MsgsReceived
		h.carriedDelivered = hs.shard.DeliveredBytes
		h.carriedEmits = hs.shard.ServerEmits
		return h.restoreOwned(func(n int) nodeSnap { return hs.sides[n] }, hs.shard)
	})
}

// restoreShardHost builds a host for origins and loads its state; a
// failed load aborts the host.
func restoreShardHost(cfg Config, origins []int, load func(h *ShardHost) error) (*ShardHost, error) {
	if err := checkSnapshotable(&cfg); err != nil {
		return nil, err
	}
	h, err := NewShardHost(cfg, origins)
	if err != nil {
		return nil, err
	}
	if err := load(h); err != nil {
		h.Abort()
		return nil, err
	}
	return h, nil
}

// restoreOwned loads the owned origins' node sides and delivery state.
// AggregateOrigin stays with the coordinator, and the carried counters
// are not folded here (restoreState never folds them).
func (h *ShardHost) restoreOwned(side func(n int) nodeSnap, st *ShardState) error {
	for _, n := range h.origins {
		ns := side(n)
		if err := applyNodeSnap(&h.cfg, h.prog, &ns, h.nodes[n], h.insts[n]); err != nil {
			return err
		}
	}
	sub := &ShardState{}
	for _, o := range st.Origins {
		if o.Origin != AggregateOrigin && h.owned[o.Origin] {
			sub.Origins = append(sub.Origins, o)
		}
	}
	return h.plan.restoreState(&h.cfg, sub)
}

// Snapshot freezes a distributed run at the current window boundary into
// the standard session-snapshot encoding. Terminal for the coordinator
// and every host. The bytes resume through ResumeSession (single-host),
// ResumeDistSession (any placement) or MigrateSnapshot (a new cut).
func (s *DistSession) Snapshot() ([]byte, error) {
	if err := s.freeze("DistSession"); err != nil {
		return nil, err
	}
	cfg := &s.cfg
	blobs := make([][]byte, len(s.hosts))
	all := s.activeHosts(func(int) bool { return true })
	s.eachHost(all, func(hi int) error {
		data, err := s.hosts[hi].Driver.Snapshot()
		blobs[hi] = data
		return err
	})
	abort := func(err error) ([]byte, error) {
		// Snapshot is terminal on every driver that succeeded; Abort the
		// rest and the coordinator's plan.
		for hi := range s.hosts {
			if blobs[hi] == nil {
				s.hosts[hi].Driver.Abort()
			}
		}
		s.aggPlan.close()
		return nil, err
	}
	for _, hi := range all {
		if err := s.errs[hi]; err != nil {
			// A lost host recovers even at the freeze barrier: the
			// replacement replays the tail, then snapshots in its place.
			if _, rerr := s.recoverHost(hi, err, "snapshot"); rerr != nil {
				return abort(rerr)
			}
			data, serr := s.hosts[hi].Driver.Snapshot()
			if serr != nil {
				return abort(serr)
			}
			blobs[hi] = data
		}
	}
	hostSnaps := make([]*hostSnap, len(s.hosts))
	for hi := range s.hosts {
		hs, err := decodeHostSnap(cfg, blobs[hi])
		if err != nil {
			return abort(err)
		}
		hostSnaps[hi] = hs
	}
	aggSt, err := s.aggPlan.snapshotState(cfg)
	if err != nil {
		return abort(err)
	}
	s.aggPlan.close()

	snap, err := s.snap(edgeIndexes(cfg))
	if err != nil {
		return nil, err
	}
	// Send counters sum into the header; delivery counters travel in the
	// shard state, where a resumed coordinator folds them exactly once.
	st := &ShardState{
		MsgsReceived:   snap.res.MsgsReceived + aggSt.MsgsReceived,
		DeliveredBytes: snap.res.DeliveredBytes + aggSt.DeliveredBytes,
		ServerEmits:    snap.res.ServerEmits + aggSt.ServerEmits,
		Origins:        aggSt.Origins,
		Server:         aggSt.Server,
	}
	snap.res.MsgsReceived, snap.res.DeliveredBytes, snap.res.ServerEmits = 0, 0, 0
	for _, hs := range hostSnaps {
		snap.res.MsgsSent += int(hs.msgsSent)
		snap.res.PayloadBytes += int(hs.payloadBytes)
		st.MsgsReceived += hs.shard.MsgsReceived
		st.DeliveredBytes += hs.shard.DeliveredBytes
		st.ServerEmits += hs.shard.ServerEmits
		for _, o := range hs.shard.Origins {
			// The aggregate origin belongs to the coordinator's plan; a
			// host plan can hold only a defensive empty entry.
			if o.Origin != AggregateOrigin {
				st.Origins = append(st.Origins, o)
			}
		}
	}
	sort.Slice(st.Origins, func(i, j int) bool { return st.Origins[i].Origin < st.Origins[j].Origin })
	snap.shard = st
	for n := range snap.perNode {
		side, ok := hostSnaps[s.ownerOf[n]].sides[n]
		if !ok {
			return nil, fmt.Errorf("runtime: host %d's snapshot is missing origin %d", s.ownerOf[n], n)
		}
		side.arrivals = snap.perNode[n].arrivals
		snap.perNode[n] = side
	}
	return encodeSessionSnap(snap), nil
}

// ResumeDistSession rebuilds a distributed coordinator from a session
// snapshot. The host bindings must already hold drivers whose sessions
// restored their origins from the same snapshot (RestoreShardHost
// locally, /v1/shard/open with Resume remotely) — this call restores
// only the coordinator's pieces: the core's clock, ratio bookkeeping,
// carried counters, buffered arrivals and reduce rounds, and the
// AggregateOrigin delivery state.
func ResumeDistSession(cfg Config, hosts []HostBinding, data []byte) (*DistSession, error) {
	if err := checkSnapshotable(&cfg); err != nil {
		return nil, err
	}
	s, err := NewDistSession(cfg, hosts)
	if err != nil {
		return nil, err
	}
	snap, err := s.resume(data)
	if err == nil {
		sub := &ShardState{Server: snap.shard.Server}
		for _, o := range snap.shard.Origins {
			if o.Origin == AggregateOrigin {
				sub.Origins = append(sub.Origins, o)
			}
		}
		err = s.aggPlan.restoreState(&s.cfg, sub)
	}
	if err != nil {
		s.aggPlan.close()
		return nil, err
	}
	return s, nil
}
