package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/runtime"
)

// buildWBServed compiles the service binary the process workloads spawn.
func buildWBServed(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "wbserved")
	cmd := exec.Command("go", "build", "-o", bin, "wishbone/cmd/wbserved")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build wbserved: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced under two different seeds: each run must pass its output checks
// and print every metric of its set on the last line.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns wbserved processes")
	}
	bin := buildWBServed(t)
	t.Chdir(t.TempDir()) // traced runs write .bench_build/traces here
	for _, wl := range []string{"deliver-64", "dist-2host", "serve-mix"} {
		for _, tc := range []struct {
			seed  int64
			trace bool
			units []metricUnit
		}{{3, false, e2eUnits}, {4, true, layerUnits}} {
			var stdout bytes.Buffer
			o := opts{seed: tc.seed, seconds: 0.05, trace: tc.trace, wbserved: bin, tiny: true}
			if err := run(&stdout, wl, o); err != nil {
				t.Fatalf("%s seed %d trace %v: %v", wl, tc.seed, tc.trace, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", wl, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s seed %d trace %v: output checks: %+v", wl, tc.seed, tc.trace, res)
			}
			if len(res.Metrics) != len(tc.units) {
				t.Errorf("%s: %d metrics, want %d", wl, len(res.Metrics), len(tc.units))
			}
			for _, mu := range tc.units {
				m, ok := res.Metrics[mu.name]
				if !ok || m.Unit != mu.unit {
					t.Errorf("%s: metric %s missing or unit %q != %q", wl, mu.name, m.Unit, mu.unit)
				}
			}
			if tc.trace {
				if _, err := os.Stat(filepath.Join(".bench_build", "traces", wl+"-seed4.json")); err != nil {
					t.Errorf("%s: no trace file: %v", wl, err)
				}
			}
		}
	}
}

// TestSeedChangesInputs pins that the seed reaches every workload's
// generated inputs.
func TestSeedChangesInputs(t *testing.T) {
	a, b := opts{seed: 3, tiny: true}, opts{seed: 4, tiny: true}

	app := speech.New()
	da, db := newDeliverEnv(a, app), newDeliverEnv(b, app)
	if err := da.genInputs(); err != nil {
		t.Fatal(err)
	}
	if err := db.genInputs(); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(da.frames, db.frames) {
		t.Error("deliver-64: frames do not depend on the seed")
	}

	xa, xb := newDistEnv(a), newDistEnv(b)
	if reflect.DeepEqual(xa.traces[0][0].Events, xb.traces[0][0].Events) {
		t.Error("dist-2host: traces do not depend on the seed")
	}

	sa, err := newServeEnv(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := newServeEnv(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa.streams {
		if reflect.DeepEqual(sa.streams[i].feed, sb.streams[i].feed) {
			t.Errorf("serve-mix: %s does not depend on the seed", sa.streams[i].key)
		}
	}
	if ma, mb := sa.nextMiss(0), sb.nextMiss(0); ma.key == mb.key {
		t.Errorf("serve-mix: cache-miss partition %s does not depend on the seed", ma.key)
	}
}

// TestChecksCatchMismatch pins that the output checks fail on a wrong
// result instead of passing vacuously.
func TestChecksCatchMismatch(t *testing.T) {
	o := opts{seed: 3, tiny: true}
	app := speech.New()
	e := newDeliverEnv(o, app)
	if err := e.genInputs(); err != nil {
		t.Fatal(err)
	}
	ref, err := e.reference()
	if err != nil {
		t.Fatal(err)
	}
	node, srv, err := runtime.CompilePartition(app.Graph, e.onNode)
	if err != nil {
		t.Fatal(err)
	}
	bad := *ref
	bad.ServerEmits++
	if p := e.pass(e.config(node, srv), &bad, 0, nil); p.failed != p.sessions {
		t.Errorf("deliver-64: %d of %d sessions failed against a wrong reference", p.failed, p.sessions)
	}
	if p := e.pass(e.config(node, srv), ref, 0, nil); p.failed != 0 {
		t.Errorf("deliver-64: %d sessions failed against the true reference", p.failed)
	}

	s, err := newServeEnv(o)
	if err != nil {
		t.Fatal(err)
	}
	req := s.partitions[0]
	good := reference(req)
	if good == nil {
		t.Fatalf("serve-mix: %s failed on a fresh server", req.key)
	}
	tampered := append([]byte(nil), good...)
	tampered[len(tampered)-2] ^= 1
	if n := check([]serveResp{{req: req, body: good}, {req: req, body: tampered}}); n != 1 {
		t.Errorf("serve-mix: check counted %d failures, want 1 (the tampered response)", n)
	}
}

// TestCoveredNS pins the interval union behind self times: overlapping
// children count once and are clipped to the parent.
func TestCoveredNS(t *testing.T) {
	for _, tc := range []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{2, 4}, {3, 6}}, 4},
		{[]interval{{-5, 2}, {8, 20}}, 4},
		{[]interval{{1, 9}, {2, 3}}, 8},
		{[]interval{{12, 15}}, 0},
	} {
		if got := coveredNS(0, 10, tc.ivs); got != tc.want {
			t.Errorf("coveredNS(0, 10, %v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}
