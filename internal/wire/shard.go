package wire

import (
	"fmt"

	"wishbone/internal/dataflow"
)

// Request and response bodies of the shard-host protocol: the HTTP
// surface a coordinator (internal/dist) drives to place one simulation's
// origin shards on recruited wbserved peers. A shard session is one
// ShardHost living across requests; the coordinator phases it strictly —
// open, then per window compute (ship arrivals, learn offered air and
// reduce contributions) and deliver (broadcast the priced ratio), then
// close (collect the host's partial counters) or abort.
//
// Every body is JSON except the compute request, which carries a whole
// window of arrivals and is binary (AppendShardComputeRequest). Arrival
// values and reduce contributions travel in the repo's binary value
// encoding (Marshal/Unmarshal; reduce data base64 inside the JSON
// response) rather than as JSON numbers: the round trip is bit-exact by
// construction, which is what keeps distributed Results byte-identical
// to single-host runs.

// ShardOpenRequest opens a shard session hosting the given origin nodes.
// The peer re-elaborates Graph locally; GraphHash (the graph's structural
// hash) guards against the coordinator and peer building different
// structures from one spec. OnNode lists the operator IDs on the node
// side — always explicit, there is no auto-partition fallback here (the
// coordinator already knows the cut).
type ShardOpenRequest struct {
	Graph     GraphSpec `json:"graph"`
	GraphHash string    `json:"graphHash,omitempty"`
	Platform  string    `json:"platform"`
	OnNode    []int     `json:"onNode,omitempty"`

	Nodes    int     `json:"nodes"`
	Duration float64 `json:"duration"`
	Seed     int64   `json:"seed,omitempty"`
	// Shards splits this host's delivery loop by origin (a per-host knob;
	// it never affects Results).
	Shards int `json:"shards,omitempty"`
	// Origins is the subset of [0, Nodes) this host owns.
	Origins []int `json:"origins"`
	// Resume, when non-empty, is a full session snapshot (the versioned
	// encoding Session.Snapshot / DistSession.Snapshot produce, possibly
	// rewritten by MigrateSnapshot); the host restores its owned origins'
	// node sides and delivery state from it instead of starting fresh —
	// the state-handoff half of mid-run shard migration and cross-host
	// operator relocation.
	Resume []byte `json:"resume,omitempty"`
	// ResumeHost, when non-empty, is one host's checkpoint blob
	// (/v1/shard/checkpoint): the recovery path. The opened session takes
	// over the dead host's whole contribution — Origins must equal the
	// checkpoint's origin set exactly, and the host carries the
	// checkpoint's counters forward. Mutually exclusive with Resume.
	ResumeHost []byte `json:"resumeHost,omitempty"`
}

// ShardOpenResponse returns the session handle every subsequent call
// names.
type ShardOpenResponse struct {
	Session   string `json:"session"`
	GraphHash string `json:"graphHash"`
}

// ShardArrival is one arrival shipped to a shard host: origin node,
// time, source operator ID (the coordinator and host hold separate Graph
// instances of the same structure), and the element.
type ShardArrival struct {
	Node   int
	Time   float64
	Source int
	Value  dataflow.Value
}

// ShardComputeRequest ships one window's arrivals (owned origins only,
// per-node nondecreasing time) for the node phase. Window is the
// coordinator's 1-based window sequence number for this session: the
// host answers a repeat of the last sequence from its reply cache
// instead of recomputing, which is what makes the coordinator's
// retry-after-timeout safe on this non-idempotent call (the first
// attempt may have executed even though its response was lost).
//
// The request travels as one binary body in the snapshot framing
// (SnapshotWriter): the version byte, Session, Window, Span and the
// arrival count, then per arrival the node, the time's exact IEEE-754
// bits, the source and the value as AppendMarshal writes it. The server
// reads the body whole, so it is capped like every unary request body
// (server.MaxRequestBytes); a window too large for the cap is rejected
// with 413 and must be split by running shorter windows.
type ShardComputeRequest struct {
	Session  string
	Window   int64
	Span     float64
	Arrivals []ShardArrival
}

// minShardArrivalBytes is the smallest encoded arrival: one-byte node and
// source varints, the 8-byte time and a one-byte value (a nil tag).
const minShardArrivalBytes = 11

// AppendShardComputeRequest appends req's binary body to dst and returns
// the extended slice; callers reuse dst across windows. It fails only on
// a value the element codec does not support.
func AppendShardComputeRequest(dst []byte, req *ShardComputeRequest) ([]byte, error) {
	w := SnapshotWriter{buf: append(dst, SnapshotVersion)}
	w.String(req.Session)
	w.Int(req.Window)
	w.F64(req.Span)
	w.Uvarint(uint64(len(req.Arrivals)))
	for i := range req.Arrivals {
		a := &req.Arrivals[i]
		w.Int(int64(a.Node))
		w.F64(a.Time)
		w.Int(int64(a.Source))
		var err error
		if w.buf, err = AppendMarshal(w.buf, a.Value); err != nil {
			return dst, fmt.Errorf("wire: arrival value for node %d: %w", a.Node, err)
		}
	}
	return w.buf, nil
}

// DecodeShardComputeRequest parses a body written by
// AppendShardComputeRequest. Every failure — truncation, a count the
// bytes left cannot hold, a bad value, trailing bytes — matches
// ErrMalformedSnapshot, and no allocation is sized by a claimed count
// before the bytes to back it are known to be there. Decoded values do
// not alias body.
func DecodeShardComputeRequest(body []byte) (*ShardComputeRequest, error) {
	r, err := NewSnapshotReader(body)
	if err != nil {
		return nil, err
	}
	req := &ShardComputeRequest{Session: r.String(), Window: r.Int(), Span: r.F64()}
	n := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > len(r.data)/minShardArrivalBytes {
		return nil, fmt.Errorf("wire: %d arrivals cannot fit in the %d bytes left: %w", n, len(r.data), ErrMalformedSnapshot)
	}
	req.Arrivals = make([]ShardArrival, n)
	for i := range req.Arrivals {
		a := &req.Arrivals[i]
		a.Node = int(r.Int())
		a.Time = r.F64()
		a.Source = int(r.Int())
		a.Value = r.value()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("wire: arrival %d: %w", i, err)
		}
	}
	if !r.Done() {
		return nil, fmt.Errorf("wire: %d trailing bytes after the arrivals: %w", len(r.data), ErrMalformedSnapshot)
	}
	return req, nil
}

// ShardReduceWire is one in-network reduce contribution returning to the
// coordinator: origin node, dense edge index, emission time, the packet
// count already charged to the air, and the element in the binary codec.
type ShardReduceWire struct {
	Node    int     `json:"node"`
	Edge    int     `json:"edge"`
	Time    float64 `json:"t"`
	Packets int     `json:"packets"`
	Data    []byte  `json:"data"`
}

// ShardComputeResponse is the host's window report: how many non-reduce
// messages it holds for the ratio broadcast, their offered air bytes, and
// the window's reduce contributions.
type ShardComputeResponse struct {
	Held   int               `json:"held"`
	Air    int               `json:"air"`
	Reduce []ShardReduceWire `json:"reduce,omitempty"`
}

// ShardDeliverRequest broadcasts the coordinator's priced delivery ratio;
// the host replays its held window at that ratio. Window dedupes retries
// like ShardComputeRequest.Window (a repeat of the last delivered
// sequence is acknowledged without delivering twice).
type ShardDeliverRequest struct {
	Session string  `json:"session"`
	Window  int64   `json:"window,omitempty"`
	Ratio   float64 `json:"ratio"`
}

// ShardSessionRequest names a session (deliver-less calls: close, abort).
type ShardSessionRequest struct {
	Session string `json:"session"`
}

// ShardSnapshotResponse carries one host's frozen contribution blob (the
// coordinator folds every host's into a full session snapshot). The call
// is terminal for the session, like close.
type ShardSnapshotResponse struct {
	Snapshot []byte `json:"snapshot"`
}

// ShardCheckpointResponse carries one host's boundary checkpoint blob —
// the same encoding as ShardSnapshotResponse.Snapshot, but the call is
// NOT terminal: the session keeps running, and the coordinator retains
// the blob to restore the host elsewhere if it later fails
// (ShardOpenRequest.ResumeHost).
type ShardCheckpointResponse struct {
	Checkpoint []byte `json:"checkpoint"`
}

// NodeBusyWire is one node's accumulated CPU-busy seconds. JSON float64
// round-trips are exact, so the coordinator's global-node-order sum is
// byte-identical to the single-host one.
type NodeBusyWire struct {
	Node int     `json:"node"`
	Busy float64 `json:"busy"`
}

// ShardCloseResponse is the host's final contribution to the run Result.
type ShardCloseResponse struct {
	InputEvents     int            `json:"inputEvents"`
	ProcessedEvents int            `json:"processedEvents"`
	MsgsSent        int            `json:"msgsSent"`
	MsgsReceived    int            `json:"msgsReceived"`
	PayloadBytes    int            `json:"payloadBytes"`
	DeliveredBytes  int            `json:"deliveredBytes"`
	ServerEmits     int            `json:"serverEmits"`
	NodeBusy        []NodeBusyWire `json:"nodeBusy"`
}
