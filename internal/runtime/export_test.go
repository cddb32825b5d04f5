package runtime

import (
	"fmt"

	"wishbone/internal/dataflow"
)

// HostileAggSnapshots rewrites a session snapshot that carries reduce
// state into variants whose first reduce edge holds rounds no run can
// produce: a round-count list shorter than the node count, a node count
// past the pending rounds, a negative count, and a negative flush
// watermark. Every other byte is the original's.
func HostileAggSnapshots(g *dataflow.Graph, data []byte) (map[string][]byte, error) {
	edits := map[string]func(ae *aggEdgeSnap){
		"no round counts":    func(ae *aggEdgeSnap) { ae.counts = nil },
		"count past pending": func(ae *aggEdgeSnap) { ae.counts[0] = ae.flushed + int64(len(ae.pending)) + 1<<40 },
		"negative count":     func(ae *aggEdgeSnap) { ae.counts[0] = -1 },
		"negative flushed":   func(ae *aggEdgeSnap) { ae.flushed = -1 },
	}
	out := make(map[string][]byte, len(edits))
	for name, edit := range edits {
		snap, err := decodeSessionSnap(g, data)
		if err != nil {
			return nil, err
		}
		if len(snap.agg) == 0 {
			return nil, fmt.Errorf("snapshot carries no reduce state")
		}
		edit(&snap.agg[0])
		out[name] = encodeSessionSnap(snap)
	}
	return out, nil
}
