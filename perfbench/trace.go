package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of
// the boundary: its name, when it started and ended, the span that caused
// it (-1 for a root) and the request or window it belongs to. Calls too
// frequent to record one by one (per-arrival OfferRaw) are folded into
// their window's span as a count and summed time.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	ID      int64  `json:"id"`
	Calls   int64  `json:"calls,omitempty"`
	CallsNS int64  `json:"calls_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes pay only the nil check.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its index (-1 when t is nil).
func (t *tracer) add(name string, parent int, id int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, ID: id,
		StartNS: int64(start.Sub(t.origin)), EndNS: int64(end.Sub(t.origin)),
	})
	return len(t.spans) - 1
}

// setCalls attaches folded per-call counters to span i.
func (t *tracer) setCalls(i int, calls int64, ns int64) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].Calls, t.spans[i].CallsNS = calls, ns
}

// setParent re-parents span i (spans recorded before their parent ends).
func (t *tracer) setParent(i, parent int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].Parent = parent
}

// selfTimes returns, per span name, the summed self time in ms: each
// span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		var ivs []interval
		for _, k := range children[i] {
			ivs = append(ivs, interval{t.spans[k].StartNS, t.spans[k].EndNS})
		}
		out[s.Name] += float64(s.EndNS-s.StartNS-coveredNS(s.StartNS, s.EndNS, ivs)) / 1e6
	}
	return out
}

// interval is a [start, end) range in nanoseconds.
type interval struct{ start, end int64 }

// coveredNS is the length of the union of ivs clipped to [lo, hi).
func coveredNS(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, v := range ivs {
		if a, b := max(v.start, lo), min(v.end, hi); b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, end int64 = 0, lo
	for _, v := range clipped {
		if v.end <= end {
			continue
		}
		total += v.end - max(v.start, end)
		end = v.end
	}
	return total
}

// writeTrace writes the run's spans, per-layer self times and host facts
// to .bench_build/traces/<workload>-seed<N>.json.
func writeTrace(workload string, o opts, facts map[string]any, t *tracer) error {
	if t == nil {
		return fmt.Errorf("%s: traced run recorded no spans", workload)
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Host   map[string]any     `json:"host"`
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{facts, t.selfTimes(), t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, o.seed))
	return os.WriteFile(path, b, 0o644)
}
