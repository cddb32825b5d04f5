// Package eeg builds the paper's patient-specific seizure onset detection
// application (§6.1): 22 EEG channels sampled at 256 Hz, divided into
// 2-second windows, decomposed by a cascaded polyphase wavelet filter
// structure, reduced to 3 band-energy features per channel (66 in total),
// and classified by a linear SVM with a 3-consecutive-window seizure
// declaration rule.
//
// Each channel elaborates the operator structure of the paper's Figure 1:
// LowFreqFilter = GetEven | GetOdd | FIRFilter×2 | Zip2 | Add (6 operators),
// cascaded so that every level halves the data rate. The full 22-channel
// graph has ~1.2k operators — the same scale as the paper's 1412 (their
// WaveScript front end elaborates a few more helper operators per filter).
package eeg

import (
	"fmt"
	"sync"

	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/dsp"
	"wishbone/internal/profile"
	"wishbone/internal/synth"
)

// Channels is the number of EEG channels in the full application.
const Channels = 22

// SampleRate is the per-channel sampling rate in Hz.
const SampleRate = 256.0

// WindowSamples is the number of samples per 2-second analysis window.
const WindowSamples = 512

// WindowRate is the full-rate window frequency per channel (one window
// every 2 seconds).
const WindowRate = 0.5

// FeaturesPerChannel is the number of band-energy features per channel.
const FeaturesPerChannel = 3

// ConsecutiveForSeizure is how many consecutive positive windows declare a
// seizure.
const ConsecutiveForSeizure = 3

// 4-tap polyphase wavelet filter coefficients (low-pass and high-pass
// halves of a Daubechies-like analysis pair).
var (
	lowEven  = []float64{0.48296, 0.22414, 0, 0}
	lowOdd   = []float64{0.83652, -0.12941, 0, 0}
	highEven = []float64{-0.12941, -0.48296, 0, 0}
	highOdd  = []float64{0.22414, 0.83652, 0, 0}
)

// filterGains scales each extracted band's energy (Figure 1's
// MagWithScale(filterGains[k], ...)).
var filterGains = []float64{1.0, 1.2, 1.5}

// pairVal is the synchronized output of a Zip2 operator: the filtered even
// and odd polyphase branches awaiting recombination.
type pairVal struct {
	a, b []int16
}

// WireSize implements dataflow.Sized.
func (p pairVal) WireSize() int { return 2*len(p.a) + 2*len(p.b) }

// featVec is a channel's (or the whole application's) feature vector.
type featVec []float32

// WireSize implements dataflow.Sized.
func (f featVec) WireSize() int { return 4 * len(f) }

// scratch holds the float64 conversion buffers Work and BatchWork reuse
// across elements; emitted values are never backed by it, and both
// return it to the pool before emitting.
type scratch struct{ a, b []float64 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) f64a(n int) []float64 {
	if cap(s.a) < n {
		s.a = make([]float64, n)
	}
	return s.a[:n]
}

func (s *scratch) f64b(n int) []float64 {
	if cap(s.b) < n {
		s.b = make([]float64, n)
	}
	return s.b[:n]
}

// toFloatInto converts x into out (len(out) ≥ len(x)) and returns the
// filled prefix.
func toFloatInto(x []int16, out []float64) []float64 {
	out = out[:len(x)]
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

// toInt16Into converts x into out (len(out) ≥ len(x)), clamping to the
// int16 range, and returns the filled prefix.
func toInt16Into(x []float64, out []int16) []int16 {
	out = out[:len(x)]
	for i, v := range x {
		if v > 32767 {
			v = 32767
		} else if v < -32768 {
			v = -32768
		}
		out[i] = int16(v)
	}
	return out
}

// popFront drops a queue's head. Draining the last element truncates the
// queue in place instead of slicing past it, so a queue that empties
// after every element keeps its capacity and the next append does not
// allocate.
func popFront[T any](q []T) []T {
	var zero T
	q[0] = zero
	if len(q) == 1 {
		return q[:0]
	}
	return q[1:]
}

// totalLen16 sums the lengths of a batch of []int16 values, sizing one
// output slab for the whole batch.
func totalLen16(vs []dataflow.Value) int {
	total := 0
	for _, v := range vs {
		total += len(v.([]int16))
	}
	return total
}

// App is a constructed EEG application.
type App struct {
	Graph *dataflow.Graph

	// Sources holds each channel's source operator.
	Sources []*dataflow.Operator

	// SVM and Detect are the server-side classification operators.
	SVM    *dataflow.Operator
	Detect *dataflow.Operator

	// channels is the channel count this instance was built with.
	channels int
}

// New builds the full 22-channel application.
func New() *App { return NewWithChannels(Channels) }

// NewWithChannels builds the application with a reduced channel count
// (Figure 5(a) evaluates a single channel).
func NewWithChannels(channels int) *App {
	g := dataflow.New()
	app := &App{Graph: g, channels: channels}

	chanOuts := make([]*dataflow.Operator, channels)
	for c := 0; c < channels; c++ {
		src, out := buildChannel(g, c)
		app.Sources = append(app.Sources, src)
		chanOuts[c] = out
	}

	zipAll := g.Add(&dataflow.Operator{
		Name: "zipAll", NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return newZipState(channels) },
		Work:     zipWork(channels),
	})
	for c, out := range chanOuts {
		g.Connect(out, zipAll, c)
	}

	weights := svmWeights(channels * FeaturesPerChannel)
	svm := g.Add(&dataflow.Operator{
		Name: "svm", NS: dataflow.NSServer,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			feats := v.(featVec)
			margin := -0.35 // bias
			for i, f := range feats {
				margin += weights[i] * float64(f)
			}
			countDot(ctx, len(feats))
			emit(float32(margin))
		},
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				feats := v.(featVec)
				margin := -0.35 // bias
				for j, f := range feats {
					margin += weights[j] * float64(f)
				}
				countDot(ctx, len(feats))
				out[i] = float32(margin)
			}
			emit(out)
		},
	})
	g.Connect(zipAll, svm, 0)

	detect := g.Add(&dataflow.Operator{
		Name: "detect", NS: dataflow.NSServer, Stateful: true,
		NewState: func() any { return &detectState{} },
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			st := ctx.State.(*detectState)
			if v.(float32) > 0 {
				st.run++
				if st.run == ConsecutiveForSeizure {
					emit(true) // seizure declared
				}
			} else {
				st.run = 0
			}
		},
	})
	g.Connect(svm, detect, 0)

	sink := g.Add(&dataflow.Operator{
		Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {},
	})
	g.Connect(detect, sink, 0)
	app.SVM, app.Detect = svm, detect
	attachSnapshotCodecs(g)
	return app
}

type detectState struct{ run int }

// countDot records the cost of an n-term dot product.
func countDot(ctx *dataflow.Ctx, n int) {
	ctx.Counter.Add(cost.FloatMul, n)
	ctx.Counter.Add(cost.FloatAdd, n)
	ctx.Counter.Add(cost.Load, 2*n)
}

// buildChannel elaborates one channel's filter cascade and returns its
// source operator and its per-channel feature (zipN) operator.
func buildChannel(g *dataflow.Graph, ch int) (src, out *dataflow.Operator) {
	name := func(stage string) string { return fmt.Sprintf("ch%02d.%s", ch, stage) }

	src = g.Add(&dataflow.Operator{
		Name: name("source"), NS: dataflow.NSNode, SideEffect: true,
	})
	scale := g.Add(&dataflow.Operator{
		Name: name("scale"), NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return &dcState{} },
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			// Remove the running DC offset (electrode drift).
			st := ctx.State.(*dcState)
			in := v.([]int16)
			out := make([]int16, len(in))
			for i, s := range in {
				st.mean = 0.999*st.mean + 0.001*float64(s)
				out[i] = s - int16(st.mean)
				ctx.Counter.Add(cost.FloatMul, 2)
				ctx.Counter.Add(cost.FloatAdd, 2)
				ctx.Counter.Add(cost.Store, 1)
			}
			emit(out)
		},
		BatchStateSafe: true,
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			st := ctx.State.(*dcState)
			slab := make([]int16, totalLen16(vs))
			out := make([]dataflow.Value, len(vs))
			n := 0
			for i, v := range vs {
				in := v.([]int16)
				o := slab[:len(in)]
				slab = slab[len(in):]
				for j, s := range in {
					st.mean = 0.999*st.mean + 0.001*float64(s)
					o[j] = s - int16(st.mean)
				}
				n += len(in)
				out[i] = o
			}
			ctx.Counter.Add(cost.FloatMul, 2*n)
			ctx.Counter.Add(cost.FloatAdd, 2*n)
			ctx.Counter.Add(cost.Store, n)
			emit(out)
		},
	})
	g.Connect(src, scale, 0)

	// Cascade: low1 low2 low3, then (high4,low4), (high5,low5), high6.
	low1 := buildWavelet(g, name("low1"), scale, lowEven, lowOdd)
	low2 := buildWavelet(g, name("low2"), low1, lowEven, lowOdd)
	low3 := buildWavelet(g, name("low3"), low2, lowEven, lowOdd)

	high4 := buildWavelet(g, name("high4"), low3, highEven, highOdd)
	low4 := buildWavelet(g, name("low4"), low3, lowEven, lowOdd)
	level4 := buildMag(g, name("level4"), high4, filterGains[0])

	high5 := buildWavelet(g, name("high5"), low4, highEven, highOdd)
	low5 := buildWavelet(g, name("low5"), low4, lowEven, lowOdd)
	level5 := buildMag(g, name("level5"), high5, filterGains[1])

	high6 := buildWavelet(g, name("high6"), low5, highEven, highOdd)
	level6 := buildMag(g, name("level6"), high6, filterGains[2])

	zipN := g.Add(&dataflow.Operator{
		Name: name("zipN"), NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return newZipState(FeaturesPerChannel) },
		Work:     zipWork(FeaturesPerChannel),
	})
	g.Connect(level4, zipN, 0)
	g.Connect(level5, zipN, 1)
	g.Connect(level6, zipN, 2)
	return src, zipN
}

type dcState struct{ mean float64 }

// firState is one FIRFilter operator's delay line.
type firState struct{ fir *dsp.FIRState }

// buildWavelet elaborates one LowFreqFilter/HighFreqFilter block (Figure
// 1): GetEven and GetOdd split the stream, each half runs a 4-tap FIR, and
// the halves are zipped and added. Returns the Add operator (the block's
// output).
func buildWavelet(g *dataflow.Graph, base string, in *dataflow.Operator, evenC, oddC []float64) *dataflow.Operator {
	getEven := g.Add(&dataflow.Operator{
		Name: base + ".getEven", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			emit(splitHalf(ctx, v.([]int16), 0))
		},
		BatchWork: splitBatch(0),
	})
	getOdd := g.Add(&dataflow.Operator{
		Name: base + ".getOdd", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			emit(splitHalf(ctx, v.([]int16), 1))
		},
		BatchWork: splitBatch(1),
	})
	g.Connect(in, getEven, 0)
	g.Connect(in, getOdd, 0)

	firE := buildFIR(g, base+".firEven", getEven, evenC)
	firO := buildFIR(g, base+".firOdd", getOdd, oddC)

	zip2 := g.Add(&dataflow.Operator{
		Name: base + ".zip2", NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return &zip2State{} },
		Work: func(ctx *dataflow.Ctx, port int, v dataflow.Value, emit dataflow.Emit) {
			st := ctx.State.(*zip2State)
			if port == 0 {
				st.a = append(st.a, v.([]int16))
			} else {
				st.b = append(st.b, v.([]int16))
			}
			ctx.Counter.Add(cost.Store, 2)
			for len(st.a) > 0 && len(st.b) > 0 {
				pair := pairVal{a: st.a[0], b: st.b[0]}
				st.a, st.b = popFront(st.a), popFront(st.b)
				emit(pair)
			}
		},
	})
	g.Connect(firE, zip2, 0)
	g.Connect(firO, zip2, 1)

	add := g.Add(&dataflow.Operator{
		Name: base + ".add", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			p := v.(pairVal)
			n := len(p.a)
			if len(p.b) < n {
				n = len(p.b)
			}
			out := make([]int16, n)
			for i := 0; i < n; i++ {
				out[i] = p.a[i] + p.b[i]
			}
			ctx.Counter.Add(cost.IntOp, n)
			ctx.Counter.Add(cost.Load, 2*n)
			ctx.Counter.Add(cost.Store, n)
			emit(out)
		},
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			total := 0
			for _, v := range vs {
				p := v.(pairVal)
				n := len(p.a)
				if len(p.b) < n {
					n = len(p.b)
				}
				total += n
			}
			slab := make([]int16, total)
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				p := v.(pairVal)
				n := len(p.a)
				if len(p.b) < n {
					n = len(p.b)
				}
				o := slab[:n]
				slab = slab[n:]
				for j := 0; j < n; j++ {
					o[j] = p.a[j] + p.b[j]
				}
				out[i] = o
			}
			ctx.Counter.Add(cost.IntOp, total)
			ctx.Counter.Add(cost.Load, 2*total)
			ctx.Counter.Add(cost.Store, total)
			emit(out)
		},
	})
	g.Connect(zip2, add, 0)
	return add
}

type zip2State struct{ a, b [][]int16 }

// buildFIR elaborates one FIRFilter operator with a persistent delay line.
func buildFIR(g *dataflow.Graph, name string, in *dataflow.Operator, coeffs []float64) *dataflow.Operator {
	op := g.Add(&dataflow.Operator{
		Name: name, NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return &firState{fir: dsp.NewFIRState(len(coeffs))} },
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			st := ctx.State.(*firState)
			in := v.([]int16)
			sc := scratchPool.Get().(*scratch)
			x := toFloatInto(in, sc.f64a(len(in)))
			y := dsp.FIRBlockInto(ctx.Counter, st.fir, coeffs, x, sc.f64b(len(in)))
			out := toInt16Into(y, make([]int16, len(y)))
			scratchPool.Put(sc)
			emit(out)
		},
		BatchStateSafe: true,
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			st := ctx.State.(*firState)
			sc := scratchPool.Get().(*scratch)
			slab := make([]int16, totalLen16(vs))
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				in := v.([]int16)
				x := toFloatInto(in, sc.f64a(len(in)))
				y := dsp.FIRBlockInto(ctx.Counter, st.fir, coeffs, x, sc.f64b(len(in)))
				out[i] = toInt16Into(y, slab)
				slab = slab[len(y):]
			}
			scratchPool.Put(sc)
			emit(out)
		},
	})
	g.Connect(in, op, 0)
	return op
}

// buildMag elaborates a MagWithScale operator producing one float32 energy
// per window.
func buildMag(g *dataflow.Graph, name string, in *dataflow.Operator, gain float64) *dataflow.Operator {
	op := g.Add(&dataflow.Operator{
		Name: name, NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			in := v.([]int16)
			sc := scratchPool.Get().(*scratch)
			e := float32(dsp.MagWithScale(ctx.Counter, gain, toFloatInto(in, sc.f64a(len(in)))))
			scratchPool.Put(sc)
			emit(e)
		},
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			sc := scratchPool.Get().(*scratch)
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				in := v.([]int16)
				out[i] = float32(dsp.MagWithScale(ctx.Counter, gain, toFloatInto(in, sc.f64a(len(in)))))
			}
			scratchPool.Put(sc)
			emit(out)
		},
	})
	g.Connect(in, op, 0)
	return op
}

// zipState buffers one queue per input port until a full row is available.
type zipState struct{ q [][]dataflow.Value }

func newZipState(ports int) *zipState { return &zipState{q: make([][]dataflow.Value, ports)} }

// zipWork synchronizes n input ports of float32 scalars or featVec rows
// into a single featVec.
func zipWork(ports int) dataflow.WorkFunc {
	return func(ctx *dataflow.Ctx, port int, v dataflow.Value, emit dataflow.Emit) {
		st := ctx.State.(*zipState)
		st.q[port] = append(st.q[port], v)
		ctx.Counter.Add(cost.Store, 1)
		for {
			for _, q := range st.q {
				if len(q) == 0 {
					return
				}
			}
			n := 0
			for _, q := range st.q {
				switch x := q[0].(type) {
				case float32:
					n++
				case featVec:
					n += len(x)
				}
			}
			row := make(featVec, 0, n)
			for p := range st.q {
				switch x := st.q[p][0].(type) {
				case float32:
					row = append(row, x)
				case featVec:
					row = append(row, x...)
				}
				st.q[p] = popFront(st.q[p])
			}
			ctx.Counter.Add(cost.Load, len(row))
			ctx.Counter.Add(cost.Store, len(row))
			emit(row)
		}
	}
}

// splitBatch is the batched GetEven (half 0) / GetOdd (half 1) kernel:
// each element keeps the selected polyphase half, with the same counter
// charges as splitHalf per element.
func splitBatch(half int) dataflow.BatchWorkFunc {
	return func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
		total, loads, stores := 0, 0, 0
		for _, v := range vs {
			n := len(v.([]int16))
			loads += n
			stores += n / 2 // splitHalf charges len/2 per element, rounded down
			if half == 0 {
				total += (n + 1) / 2
			} else {
				total += n / 2
			}
		}
		slab := make([]int16, total)
		out := make([]dataflow.Value, len(vs))
		for i, v := range vs {
			in := v.([]int16)
			var m int
			if half == 0 {
				m = (len(in) + 1) / 2
			} else {
				m = len(in) / 2
			}
			o := slab[:m]
			slab = slab[m:]
			for j := 0; j < m; j++ {
				o[j] = in[2*j+half]
			}
			out[i] = o
		}
		ctx.Counter.Add(cost.Load, loads)
		ctx.Counter.Add(cost.Store, stores)
		ctx.Counter.Add(cost.Branch, loads)
		emit(out)
	}
}

// splitHalf is the GetEven (half 0) / GetOdd (half 1) kernel on one
// int16 block. It charges the whole polyphase split — every sample
// loaded and branched on, half of them stored — whichever half it keeps.
func splitHalf(ctx *dataflow.Ctx, x []int16, half int) []int16 {
	out := make([]int16, (len(x)+1-half)/2)
	for j := range out {
		out[j] = x[2*j+half]
	}
	ctx.Counter.Add(cost.Load, len(x))
	ctx.Counter.Add(cost.Store, len(x)/2)
	ctx.Counter.Add(cost.Branch, len(x))
	return out
}

// svmWeights returns the fixed synthetic patient-specific weight vector:
// positive weight on low-band energy (seizure oscillations are below
// 20 Hz), negative on the highest band.
func svmWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		switch i % FeaturesPerChannel {
		case 0:
			w[i] = 0.002
		case 1:
			w[i] = 0.001
		default:
			w[i] = -0.0005
		}
	}
	return w
}

// SampleTrace generates deterministic multi-channel traces for profiling:
// one input per channel source, windows.
func (a *App) SampleTrace(seed int64, seconds float64) []profile.Input {
	gen := synth.NewEEG(seed, a.channels, SampleRate)
	nWin := int(seconds * WindowRate)
	if nWin < 1 {
		nWin = 1
	}
	events := make([][]dataflow.Value, a.channels)
	for w := 0; w < nWin; w++ {
		win := gen.Window(WindowSamples)
		for c := 0; c < a.channels; c++ {
			events[c] = append(events[c], win[c])
		}
	}
	inputs := make([]profile.Input, a.channels)
	for c := 0; c < a.channels; c++ {
		inputs[c] = profile.Input{Source: a.Sources[c], Events: events[c], Rate: WindowRate}
	}
	return inputs
}
