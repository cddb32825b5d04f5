package runtime_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	goruntime "runtime"
	"sort"
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
	"wishbone/internal/wire"
)

// The snapshot format is a wire contract: resume blobs cross processes
// (/v1/shard/open, /v1/simulate/stream) and checkpoints outlive the host
// that wrote them. These tests pin it two ways — every writer (the local
// Session, the distributed coordinator at any placement, a shard host's
// checkpoint) emits the same bytes for the same state, and the bytes of
// three fixed runs hash to constants recorded when the format was frozen
// at wire.SnapshotVersion 1.

// Golden sha256 digests of the fixtures below. They change only with a
// deliberate format change, which must also bump wire.SnapshotVersion.
const (
	goldenSpeechSnapshot = "d64c0784a6e31f86823477488f12d3a4c03fde0355cae8b1757ef6b41cb579f7"
	goldenReduceSnapshot = "c284fa26d27d39889460e07eda8dcee1cc9c79f6cd8112550856be24601af817"
	goldenHostCheckpoint = "8a4fa8590211a6ac8836cfe2ca94d95a84dcfe6fd0cc2b930eeccc76acd2959c"
)

// formatFixture is one deterministic run whose snapshot the tests pin: a
// config, its merged feed, and the time before which arrivals are offered
// (two windows flushed, the third buffered).
type formatFixture struct {
	name string
	cfg  runtime.Config
	feed []feedItem
	stop float64
}

func formatFixtures(t testing.TB) []formatFixture {
	app := speech.New()
	speechCfg := runtime.Config{
		Graph: app.Graph, OnNode: speechCutOnNode(app, 1), Platform: platform.Gumstix(),
		Nodes: 3, Duration: 8, Seed: 61, WindowSeconds: 2,
	}
	g, src, onNode := snapshotReduceApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	reduceCfg := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 3, Duration: 24, Seed: 11, WindowSeconds: 4,
	}
	return []formatFixture{
		{"speech", speechCfg, feedOf(t, speechCfg, func(n int) []profile.Input {
			return []profile.Input{app.SampleTrace(int64(300+n), 2.0)}
		}), 5},
		{"reduce", reduceCfg, feedOf(t, reduceCfg, func(n int) []profile.Input {
			return []profile.Input{{Source: src, Events: []dataflow.Value{[]float64{float64(n + 2), 7}}, Rate: 4}}
		}), 10},
	}
}

// feedOf merges every node's arrival stream into the global offer order
// (nondecreasing time, ties by node), like mergedFeed.
func feedOf(t testing.TB, cfg runtime.Config, inputs func(int) []profile.Input) []feedItem {
	var feed []feedItem
	for n := 0; n < cfg.Nodes; n++ {
		st, err := runtime.InputStream(inputs(n), 1, cfg.Duration)
		if err != nil {
			t.Fatal(err)
		}
		for a, ok := st.Next(); ok; a, ok = st.Next() {
			feed = append(feed, feedItem{node: n, a: a})
		}
	}
	sort.SliceStable(feed, func(i, j int) bool {
		if feed[i].a.Time != feed[j].a.Time {
			return feed[i].a.Time < feed[j].a.Time
		}
		return feed[i].node < feed[j].node
	})
	return feed
}

// localSnapshot offers the fixture's feed up to stop through a Session
// and snapshots it.
func localSnapshot(t testing.TB, fx formatFixture) []byte {
	sess, err := runtime.NewSession(fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fx.feed {
		if f.a.Time >= fx.stop {
			break
		}
		if err := sess.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	data, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// distSnapshot is localSnapshot through a DistSession over in-process
// hosts placed round-robin.
func distSnapshot(t testing.TB, fx formatFixture, hosts int) []byte {
	var bindings []runtime.HostBinding
	for _, origins := range runtime.PartitionOrigins(fx.cfg.Nodes, hosts) {
		h, err := runtime.NewShardHost(fx.cfg, origins)
		if err != nil {
			t.Fatal(err)
		}
		bindings = append(bindings, runtime.HostBinding{Driver: runtime.LocalHost{H: h}, Origins: origins})
	}
	ds, err := runtime.NewDistSession(fx.cfg, bindings)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fx.feed {
		if f.a.Time >= fx.stop {
			break
		}
		if err := ds.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	data, err := ds.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// hostCheckpoint drives one shard host owning nodes {0, 2} of the speech
// fixture through its first two windows directly and checkpoints it.
func hostCheckpoint(t testing.TB, fx formatFixture) []byte {
	origins := []int{0, 2}
	h, err := runtime.NewShardHost(fx.cfg, origins)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Abort()
	win := fx.cfg.WindowSeconds
	for w := 0; w < 2; w++ {
		var arr []runtime.HostArrival
		for _, f := range fx.feed {
			if f.a.Time < float64(w)*win || f.a.Time >= float64(w+1)*win || f.node == 1 {
				continue
			}
			arr = append(arr, runtime.HostArrival{Node: f.node, Time: f.a.Time, Source: f.a.Source.ID(), Value: f.a.Value})
		}
		// ComputeWindow takes each origin's arrivals in node order.
		byNode := arr[:0:0]
		for _, n := range origins {
			for _, a := range arr {
				if a.Node == n {
					byNode = append(byNode, a)
				}
			}
		}
		rep, err := h.ComputeWindow(win, byNode)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Held > 0 {
			if err := h.DeliverWindow(0.75); err != nil {
				t.Fatal(err)
			}
		}
	}
	data, err := h.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSnapshotFormatPinned pins the snapshot bytes: a distributed run at
// 1, 2 and 3 hosts freezes to exactly the local Session's bytes, and the
// speech, reduce and host-checkpoint fixtures hash to the recorded
// constants. The goldens are checked on amd64 only — other architectures
// may fuse multiply-adds in the speech operators, which legitimately
// moves float bits in the state.
func TestSnapshotFormatPinned(t *testing.T) {
	got := map[string]string{}
	for _, fx := range formatFixtures(t) {
		local := localSnapshot(t, fx)
		for _, hosts := range []int{1, 2, 3} {
			if d := distSnapshot(t, fx, hosts); string(d) != string(local) {
				t.Fatalf("%s: %d-host snapshot (%d bytes) differs from the local one (%d bytes)",
					fx.name, hosts, len(d), len(local))
			}
		}
		got[fx.name] = digest(local)
		if fx.name == "speech" {
			got["checkpoint"] = digest(hostCheckpoint(t, fx))
		}
	}
	if goruntime.GOARCH != "amd64" {
		return
	}
	for name, want := range map[string]string{
		"speech": goldenSpeechSnapshot, "reduce": goldenReduceSnapshot, "checkpoint": goldenHostCheckpoint,
	} {
		if got[name] != want {
			t.Errorf("%s snapshot sha256 %s, pinned %s", name, got[name], want)
		}
	}
}

// hostileCountBlob is a snapshot of just the version tag, the graph's
// structural hash, then a length prefix of 2^62 for the cut's operator
// list — far more elements than bytes left.
func hostileCountBlob(g *dataflow.Graph) []byte {
	w := wire.NewSnapshotWriter()
	w.String(g.StructuralHash())
	w.Uvarint(1 << 62)
	return w.Bytes()
}

// TestSnapshotHostileCount feeds a blob whose count field claims 2^62
// elements to every restore entry point: each must fail with a typed
// malformed-snapshot error instead of allocating (or panicking on) the
// claimed length. Session blobs whose reduce state no run can produce
// must fail the same way at every entry point that takes them, instead
// of indexing past the round counts (or growing the pending rounds
// without bound) at the next flushed window.
func TestSnapshotHostileCount(t *testing.T) {
	g, _, onNode := snapshotReduceApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := runtime.Config{Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 2, Duration: 8, Seed: 1, WindowSeconds: 2}
	blob := hostileCountBlob(g)
	sessionEntries := func(cfg runtime.Config, blob []byte) map[string]func() error {
		return map[string]func() error{
			"MigrateSnapshot": func() error { _, err := runtime.MigrateSnapshot(g, blob, onNode); return err },
			"ResumeSession": func() error {
				s, err := runtime.ResumeSession(cfg, blob)
				if err == nil {
					// Flush the buffered window through the restored state.
					s.Close()
				}
				return err
			},
			"RestoreShardHost": func() error {
				h, err := runtime.RestoreShardHost(cfg, allOrigins(cfg.Nodes), blob)
				if err == nil {
					h.Abort()
				}
				return err
			},
			"ResumeDistSession": func() error {
				h, err := runtime.NewShardHost(cfg, allOrigins(cfg.Nodes))
				if err != nil {
					return err
				}
				defer h.Abort()
				_, err = runtime.ResumeDistSession(cfg, []runtime.HostBinding{
					{Driver: runtime.LocalHost{H: h}, Origins: allOrigins(cfg.Nodes)}}, blob)
				return err
			},
		}
	}
	check := func(what string, entries map[string]func() error) {
		for name, call := range entries {
			if err := call(); !errors.Is(err, wire.ErrMalformedSnapshot) {
				t.Errorf("%s: %s: got %v, want a wire.ErrMalformedSnapshot", what, name, err)
			}
		}
	}

	entries := sessionEntries(cfg, blob)
	entries["RestoreShardHostCheckpoint"] = func() error {
		// A host blob leads with two counters, then the origin count.
		w := wire.NewSnapshotWriter()
		w.Int(0)
		w.Int(0)
		w.Uvarint(1 << 62)
		_, err := runtime.RestoreShardHostCheckpoint(cfg, []int{0, 1}, w.Bytes())
		return err
	}
	check("2^62 count", entries)

	reduceFx := formatFixtures(t)[1]
	hostile, err := runtime.HostileAggSnapshots(g, localSnapshot(t, reduceFx))
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range hostile {
		check(name, sessionEntries(reduceFx.cfg, blob))
	}
}

func allOrigins(nodes int) []int {
	origins := make([]int, nodes)
	for i := range origins {
		origins[i] = i
	}
	return origins
}

// FuzzSnapshotDecode drives arbitrary bytes through the snapshot decoder
// behind every restore entry point. Errors are expected; a panic or a
// runaway allocation fails. The corpus seeds with real snapshots — local
// speech and reduce runs, a distributed run — and a host checkpoint.
func FuzzSnapshotDecode(f *testing.F) {
	fxs := formatFixtures(f)
	speechFx, reduceFx := fxs[0], fxs[1]
	f.Add(localSnapshot(f, speechFx))
	f.Add(localSnapshot(f, reduceFx))
	f.Add(distSnapshot(f, reduceFx, 2))
	f.Add(hostCheckpoint(f, speechFx))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fx := range []formatFixture{speechFx, reduceFx} {
			if s, err := runtime.ResumeSession(fx.cfg, data); err == nil {
				// Run the restored state: offer the feed's last arrival,
				// which flushes every window before it, then close, which
				// flushes its window and every pending reduce round.
				// Errors are fine; a panic is not.
				last := fx.feed[len(fx.feed)-1]
				s.Offer(last.node, last.a)
				s.Close()
			}
			if h, err := runtime.RestoreShardHostCheckpoint(fx.cfg, []int{0, 2}, data); err == nil {
				h.Abort()
			}
			out, err := runtime.MigrateSnapshot(fx.cfg.Graph, data, fx.cfg.OnNode)
			if err == nil && len(out) == 0 {
				t.Fatal("MigrateSnapshot returned no bytes and no error")
			}
		}
	})
}
