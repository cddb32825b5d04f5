// Command perfbench is the repository's benchmark: it drives the runtime
// session, the distributed coordinator and the partition service through
// their public APIs, checks every output against a reference computed
// outside the timed part, and prints one JSON result line.
//
// Usage (run.sh builds this binary and wbserved first):
//
//	perfbench -wbserved PATH --workload deliver-64|dist-2host|serve-mix \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, and the spans recorded around every
// call into a layer are written to .bench_build/traces/. README.md lists
// every metric, its definition and the end-to-end metric it should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// opts are the command-line settings every workload receives.
type opts struct {
	seed     int64
	seconds  float64
	trace    bool
	wbserved string
	// tiny shrinks every workload to a smoke-test size (the package test).
	tiny bool
}

// outcome is what a workload reports: the output-check tally and both
// metric sets (end-to-end from the untraced pass, per-layer from the
// traced one; a run fills only the set its --trace flag asks for).
type outcome struct {
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64
	spans     *tracer
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(o opts) (*outcome, error){
	"deliver-64": runDeliver,
	"dist-2host": runDist,
	"serve-mix":  runServe,
}

// e2eUnits and layerUnits fix every metric's name and unit; a result line
// carries every metric of one set.
var e2eUnits = []metricUnit{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"arrivals_per_s", "1/s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"stream_ms_p50", "ms"},
}

var layerUnits = []metricUnit{
	{"runtime.ingest_ns_per_arrival", "ns"},
	{"runtime.deliver_ms_per_window", "ms"},
	{"runtime.stage_overlap_ms_per_window", "ms"},
	{"runtime.node_ms_per_window", "ms"},
	{"runtime.flush_call_ms_p50", "ms"},
	{"runtime.flush_self_ms_per_window", "ms"},
	{"runtime.close_ms", "ms"},
	{"runtime.mallocs_per_arrival", "count"},
	{"runtime.alloc_bytes_per_arrival", "B"},
	{"runtime.peak_buffered", "count"},
	{"dataflow.batch_hit_ratio", "ratio"},
	{"runtime.single_worker_arrivals_per_s", "1/s"},
	{"dist.compute_rpc_ms_p50", "ms"},
	{"dist.deliver_rpc_ms_p50", "ms"},
	{"dist.checkpoint_rpc_ms_p50", "ms"},
	{"server.shard_compute_ms_mean", "ms"},
	{"server.shard_deliver_ms_mean", "ms"},
	{"server.shard_checkpoint_ms_mean", "ms"},
	{"dist.compute_rpc_self_ms", "ms"},
	{"dist.req_bytes_per_window", "B"},
	{"dist.resp_bytes_per_window", "B"},
	{"dist.barrier_wait_ms_per_window", "ms"},
	{"dist.coord_self_ms_per_window", "ms"},
	{"dist.attempts_per_rpc", "count"},
	{"solver.exact.solve_ms_mean", "ms"},
	{"solver.lagrangian.solve_ms_mean", "ms"},
	{"solver.greedy.solve_ms_mean", "ms"},
	{"solver.solves_per_partition", "count"},
	{"solver.feasible_ratio", "ratio"},
	{"server.partition_self_ms_mean", "ms"},
	{"server.partition_handler_ms_mean", "ms"},
	{"server.stream_handler_ms_mean", "ms"},
	{"server.http_self_ms_mean", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.queued_jobs_max", "count"},
	{"runtime.replans_per_stream", "count"},
	{"runtime.moves_per_replan", "count"},
	{"wvm.fuel_per_wscript_stream", "count"},
	{"trace.overhead_op_ms_p50", "ms"},
	{"trace.overhead_stream_ms_p50", "ms"},
}

type metricUnit struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o opts
	var workload string
	var traceFlag int
	flag.StringVar(&workload, "workload", "", "deliver-64, dist-2host or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced pass")
	flag.StringVar(&o.wbserved, "wbserved", "", "path of the wbserved binary")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(os.Stdout, workload, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints the host facts line followed by
// the result line (always last on stdout).
func run(stdout io.Writer, workload string, o opts) error {
	drive := workloads[workload]
	if drive == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	facts := hostFacts(workload, o)
	factsJSON, err := json.Marshal(facts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", factsJSON)
	out, err := drive(o)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	set, units := out.e2e, e2eUnits
	if o.trace {
		set, units = out.layers, layerUnits
		if err := writeTrace(workload, o, facts, out.spans); err != nil {
			return err
		}
	}
	line := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(units)),
	}
	for _, mu := range units {
		v, ok := set[mu.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, mu.name)
		}
		line.Metrics[mu.name] = metricValue{Value: v, Unit: mu.unit}
	}
	if out.attempted > 0 {
		fmt.Fprintf(stdout, "fail_ratio %d/%d = %.4f\n", out.failed, out.attempted,
			float64(out.failed)/float64(out.attempted))
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// hostFacts records what the numbers were measured on.
func hostFacts(workload string, o opts) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest(),
	}
}

// commit names the checked-out revision when the tree is a git checkout
// (read from .git without running git), else "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// sourceDigest hashes every Go source and module file under the working
// directory (the build output directory excluded), so a run identifies
// the code it measured even outside a git checkout.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the code
		}
		if d.IsDir() && (path == ".bench_build" || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (a layer that did no work on a workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeSetup runs setup n times and returns the median duration in
// seconds. Every attempt but the last is torn down by its returned undo;
// the last attempt's undo is returned for the caller to run when done.
func timeSetup(n int, setup func() (undo func(), err error)) (float64, func(), error) {
	var secs []float64
	var undo func()
	for i := 0; i < n; i++ {
		if undo != nil {
			undo()
		}
		runtime.GC() // no attempt pays for an earlier one's garbage
		start := time.Now()
		u, err := setup()
		secs = append(secs, time.Since(start).Seconds())
		if err != nil {
			return 0, nil, err
		}
		undo = u
	}
	return quantile(secs, 0.5), undo, nil
}

// emptyLayers returns the per-layer set with every metric at 0; each
// workload overwrites the layers it exercises.
func emptyLayers() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for _, mu := range layerUnits {
		m[mu.name] = 0
	}
	return m
}
