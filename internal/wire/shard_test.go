package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"wishbone/internal/dataflow"
)

// sameBits reports whether two elements are bit-identical: same
// decoded type and the same encoding (which carries every float's exact
// IEEE-754 bits, so -0.0, NaN payloads and subnormals are told apart).
func sameBits(t *testing.T, got, want dataflow.Value) bool {
	t.Helper()
	if i, ok := want.(int); ok {
		want = int64(i) // ints travel as int64
	}
	g, err := Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%T", got) == fmt.Sprintf("%T", want) && bytes.Equal(g, w)
}

// TestShardComputeCodec pins the binary /v1/shard/compute body:
// encode→decode is bit-exact for every value tag, for -0.0, subnormal
// and NaN times, and for an empty window.
func TestShardComputeCodec(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	values := []dataflow.Value{
		nil, true, false,
		int16(-32768), int32(math.MinInt32), int64(math.MaxInt64), int(-7),
		float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc0_1234), float32(math.SmallestNonzeroFloat32),
		math.Copysign(0, -1), nan, math.Inf(-1), math.SmallestNonzeroFloat64,
		[]byte{}, []byte{0, 1, 255}, "", "héllo",
		[]int16{}, []int16{-1, 0, 32767},
		[]int32{math.MaxInt32, -1},
		[]float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), math.Float32frombits(1)},
		[]float64{math.Copysign(0, -1), nan, 5e-324, 1.5},
	}
	times := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 1e-300, 3.999999999999999, nan}
	for _, tc := range []struct {
		name string
		req  ShardComputeRequest
	}{
		{"empty window", ShardComputeRequest{Session: "s", Window: 1, Span: 2}},
		{"every tag", func() ShardComputeRequest {
			req := ShardComputeRequest{Session: "0123456789abcdef", Window: math.MaxInt64, Span: math.Copysign(0, -1)}
			for i, v := range values {
				req.Arrivals = append(req.Arrivals, ShardArrival{
					Node: i * 1000, Time: times[i%len(times)], Source: -i, Value: v,
				})
			}
			return req
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := AppendShardComputeRequest([]byte("reused"), &tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(body, []byte("reused")) {
				t.Fatal("AppendShardComputeRequest did not append to dst")
			}
			got, err := DecodeShardComputeRequest(body[len("reused"):])
			if err != nil {
				t.Fatal(err)
			}
			if got.Session != tc.req.Session || got.Window != tc.req.Window ||
				math.Float64bits(got.Span) != math.Float64bits(tc.req.Span) {
				t.Fatalf("header %q/%d/%x, want %q/%d/%x", got.Session, got.Window, math.Float64bits(got.Span),
					tc.req.Session, tc.req.Window, math.Float64bits(tc.req.Span))
			}
			if len(got.Arrivals) != len(tc.req.Arrivals) {
				t.Fatalf("%d arrivals, want %d", len(got.Arrivals), len(tc.req.Arrivals))
			}
			for i, a := range got.Arrivals {
				w := tc.req.Arrivals[i]
				if a.Node != w.Node || a.Source != w.Source || math.Float64bits(a.Time) != math.Float64bits(w.Time) {
					t.Errorf("arrival %d: %d/%d/%x, want %d/%d/%x", i, a.Node, a.Source, math.Float64bits(a.Time),
						w.Node, w.Source, math.Float64bits(w.Time))
				}
				if !sameBits(t, a.Value, w.Value) {
					t.Errorf("arrival %d: value %T %v, want %T %v", i, a.Value, a.Value, w.Value, w.Value)
				}
			}
		})
	}
}

// TestShardComputeDecodeRejects pins the decoder's refusals, each a
// typed ErrMalformedSnapshot: a count claiming more arrivals than the
// body could hold fails before anything is sized by it, and truncation,
// a bad value and trailing bytes fail too.
func TestShardComputeDecodeRejects(t *testing.T) {
	header := func(count uint64) []byte {
		w := NewSnapshotWriter()
		w.String("s")
		w.Int(1)
		w.F64(2)
		w.Uvarint(count)
		return w.Bytes()
	}
	valid, err := AppendShardComputeRequest(nil, &ShardComputeRequest{
		Session: "s", Window: 1, Span: 2,
		Arrivals: []ShardArrival{{Node: 1, Time: 0.5, Source: 3, Value: []int16{1, 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"2^62 arrivals", "exceeds the", append(header(1<<62), make([]byte, 64)...)},
		{"more arrivals than fit", "cannot fit", append(header(10), make([]byte, 64)...)},
		{"truncated", "truncated", valid[:len(valid)-1]},
		{"bad value tag", "unknown tag", append(header(1), 2, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0x7f)},
		{"trailing bytes", "trailing", append(append([]byte(nil), valid...), 0)},
		{"wrong version", "version", append([]byte{SnapshotVersion + 1}, valid[1:]...)},
		{"empty", "empty", nil},
	} {
		req, err := DecodeShardComputeRequest(tc.body)
		if !errors.Is(err, ErrMalformedSnapshot) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want ErrMalformedSnapshot mentioning %q", tc.name, err, tc.want)
		}
		if req != nil {
			t.Errorf("%s: decoder returned a request alongside its error", tc.name)
		}
	}

	// The 2^62 claim must cost next to nothing: Count refuses it before
	// the arrival slice is made.
	hostile := append(header(1<<62), make([]byte, 64)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	DecodeShardComputeRequest(hostile)
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 4<<10 {
		t.Errorf("decoding a 2^62-arrival claim allocated %d bytes", grown)
	}
}
