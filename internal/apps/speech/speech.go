// Package speech builds the paper's acoustic speech-detection application
// (§6.2): a linear pipeline that reduces raw audio to Mel Frequency
// Cepstral Coefficients (MFCCs).
//
// The pipeline is the one profiled in Figures 7–10:
//
//	source → preemph → hamming → prefilt → FFT → filtBank → logs → cepstrals → sink
//
// Element sizes follow the paper: 200-sample (400-byte) frames at 40
// frames/s for 8 kHz audio; 128 bytes after the filter bank; 52 bytes (13
// float32 coefficients) after the DCT.
package speech

import (
	"math"
	"sync"

	"wishbone/internal/dataflow"
	"wishbone/internal/dsp"
	"wishbone/internal/profile"
	"wishbone/internal/synth"
)

// FrameSamples is the number of audio samples per frame (25 ms at 8 kHz).
const FrameSamples = 200

// FrameRate is the full-rate frame frequency in frames/second.
const FrameRate = 40.0

// SampleRate is the audio sample rate in Hz.
const SampleRate = 8000.0

// NumMelFilters is the size of the mel filter bank (32 energies → 128
// bytes as float32, the paper's 4× reduction from the 512-byte spectrum).
const NumMelFilters = 32

// NumCepstra is the number of cepstral coefficients kept (13 → 52 bytes).
const NumCepstra = 13

// fftBins is the number of one-sided spectrum bins (200 samples padded to
// 256).
var fftBins = dsp.NextPow2(FrameSamples) / 2

// App is the constructed speech-detection program.
type App struct {
	Graph *dataflow.Graph

	// Pipeline operators in order, source first, sink last. Cutpoint k
	// (1-based, as in Figures 9–10) places operators Pipeline[0..k-1] on
	// the node.
	Pipeline []*dataflow.Operator

	// Sink consumes cepstral vectors on the server. Last element of
	// Pipeline.
	Sink *dataflow.Operator
}

// preemphState is the stateful pre-emphasis filter memory.
type preemphState struct{ prev float64 }

// prefiltState is the 4-tap noise-shaping FIR's delay line.
type prefiltState struct{ fir *dsp.FIRState }

var prefiltCoeffs = []float64{0.35, 0.4, 0.2, 0.05}

// scratch holds the intermediate buffers Work and BatchWork reuse across
// elements: float64 conversion/kernel space and the FFT's complex
// workspace. Emitted values are never backed by scratch — a Work
// allocates only the value it emits, and each batch invocation one
// output slab shared by its emitted slices. Both return the scratch to
// the pool before emitting.
type scratch struct {
	a, b []float64
	cplx []dsp.Complex
}

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

func (s *scratch) complexBuf(n int) []dsp.Complex {
	if cap(s.cplx) < n {
		s.cplx = make([]dsp.Complex, n)
	}
	return s.cplx[:n]
}

// New builds the application graph. Every operator is declared in the Node
// namespace except the sink, so the partitioner is free to place the whole
// pipeline (§2.1's program skeleton with the sink's consumer on the
// server).
func New() *App {
	g := dataflow.New()
	hamming := dsp.HammingWindow(FrameSamples)
	mel := dsp.NewMelBank(NumMelFilters, fftBins, SampleRate, 100, 4000)

	source := g.Add(&dataflow.Operator{
		Name: "source", NS: dataflow.NSNode, SideEffect: true,
	})
	preemph := g.Add(&dataflow.Operator{
		Name: "preemph", NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return &preemphState{} },
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			st := ctx.State.(*preemphState)
			in := v.([]int16)
			sc := scratchPool.Get().(*scratch)
			x := toFloatInto(in, sc.f64a(len(in)))
			y, prev := dsp.PreEmphasisInto(ctx.Counter, x, 0.97, st.prev, sc.f64b(len(in)))
			st.prev = prev
			out := toInt16(y)
			scratchPool.Put(sc)
			emit(out)
		},
		BatchStateSafe: true,
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			st := ctx.State.(*preemphState)
			sc := scratchPool.Get().(*scratch)
			slab := make([]int16, totalLen16(vs))
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				in := v.([]int16)
				x := toFloatInto(in, sc.f64a(len(in)))
				y, prev := dsp.PreEmphasisInto(ctx.Counter, x, 0.97, st.prev, sc.f64b(len(in)))
				st.prev = prev
				out[i], slab = toInt16Carve(y, slab)
			}
			scratchPool.Put(sc)
			emit(out)
		},
	})
	hammingOp := g.Add(&dataflow.Operator{
		Name: "hamming", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			in := v.([]int16)
			sc := scratchPool.Get().(*scratch)
			x := toFloatInto(in, sc.f64a(len(in)))
			out := toInt16(dsp.ApplyWindowInto(ctx.Counter, x, hamming, sc.f64b(len(in))))
			scratchPool.Put(sc)
			emit(out)
		},
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			sc := scratchPool.Get().(*scratch)
			slab := make([]int16, totalLen16(vs))
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				in := v.([]int16)
				x := toFloatInto(in, sc.f64a(len(in)))
				y := dsp.ApplyWindowInto(ctx.Counter, x, hamming, sc.f64b(len(in)))
				out[i], slab = toInt16Carve(y, slab)
			}
			scratchPool.Put(sc)
			emit(out)
		},
	})
	prefilt := g.Add(&dataflow.Operator{
		Name: "prefilt", NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return &prefiltState{fir: dsp.NewFIRState(len(prefiltCoeffs))} },
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			st := ctx.State.(*prefiltState)
			in := v.([]int16)
			sc := scratchPool.Get().(*scratch)
			x := toFloatInto(in, sc.f64a(len(in)))
			out := toInt16(dsp.FIRBlockInto(ctx.Counter, st.fir, prefiltCoeffs, x, sc.f64b(len(in))))
			scratchPool.Put(sc)
			emit(out)
		},
		BatchStateSafe: true,
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			st := ctx.State.(*prefiltState)
			sc := scratchPool.Get().(*scratch)
			slab := make([]int16, totalLen16(vs))
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				in := v.([]int16)
				x := toFloatInto(in, sc.f64a(len(in)))
				y := dsp.FIRBlockInto(ctx.Counter, st.fir, prefiltCoeffs, x, sc.f64b(len(in)))
				out[i], slab = toInt16Carve(y, slab)
			}
			scratchPool.Put(sc)
			emit(out)
		},
	})
	fft := g.Add(&dataflow.Operator{
		Name: "FFT", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			in := v.([]int16)
			n := dsp.NextPow2(len(in))
			sc := scratchPool.Get().(*scratch)
			x := toFloatInto(in, sc.f64a(len(in)))
			out := toFloat32(dsp.PowerSpectrumInto(ctx.Counter, x, sc.complexBuf(n), sc.f64b(n/2)))
			scratchPool.Put(sc)
			emit(out)
		},
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			sc := scratchPool.Get().(*scratch)
			total := 0
			for _, v := range vs {
				total += dsp.NextPow2(len(v.([]int16))) / 2
			}
			slab := make([]float32, total)
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				in := v.([]int16)
				n := dsp.NextPow2(len(in))
				x := toFloatInto(in, sc.f64a(len(in)))
				ps := dsp.PowerSpectrumInto(ctx.Counter, x, sc.complexBuf(n), sc.f64b(n/2))
				out[i], slab = toFloat32Carve(ps, slab)
			}
			scratchPool.Put(sc)
			emit(out)
		},
	})
	filtBank := g.Add(&dataflow.Operator{
		Name: "filtBank", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			in := v.([]float32)
			sc := scratchPool.Get().(*scratch)
			spec := toFloat64From32Into(in, sc.f64a(len(in)))
			out := toFloat32(mel.ApplyInto(ctx.Counter, spec, sc.f64b(mel.NumFilters())))
			scratchPool.Put(sc)
			emit(out)
		},
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			sc := scratchPool.Get().(*scratch)
			slab := make([]float32, len(vs)*mel.NumFilters())
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				in := v.([]float32)
				spec := toFloat64From32Into(in, sc.f64a(len(in)))
				en := mel.ApplyInto(ctx.Counter, spec, sc.f64b(mel.NumFilters()))
				out[i], slab = toFloat32Carve(en, slab)
			}
			scratchPool.Put(sc)
			emit(out)
		},
	})
	logs := g.Add(&dataflow.Operator{
		Name: "logs", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			in := v.([]float32)
			sc := scratchPool.Get().(*scratch)
			energies := toFloat64From32Into(in, sc.f64a(len(in)))
			lg := dsp.Log10BlockInto(ctx.Counter, energies, sc.f64b(len(in)))
			q := quantize88(lg, make([]int16, len(lg)))
			scratchPool.Put(sc)
			emit(q)
		},
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			sc := scratchPool.Get().(*scratch)
			total := 0
			for _, v := range vs {
				total += len(v.([]float32))
			}
			slab := make([]int16, total)
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				in := v.([]float32)
				energies := toFloat64From32Into(in, sc.f64a(len(in)))
				lg := dsp.Log10BlockInto(ctx.Counter, energies, sc.f64b(len(in)))
				out[i] = quantize88(lg, slab[:len(lg)])
				slab = slab[len(lg):]
			}
			scratchPool.Put(sc)
			emit(out)
		},
	})
	cepstrals := g.Add(&dataflow.Operator{
		Name: "cepstrals", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			q := v.([]int16)
			sc := scratchPool.Get().(*scratch)
			lg := sc.f64a(len(q))
			for i, e := range q {
				lg[i] = float64(e) / 256
			}
			out := toFloat32(dsp.DCTIIInto(ctx.Counter, lg, NumCepstra, sc.f64b(NumCepstra)))
			scratchPool.Put(sc)
			emit(out)
		},
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			sc := scratchPool.Get().(*scratch)
			slab := make([]float32, len(vs)*NumCepstra)
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				q := v.([]int16)
				lg := sc.f64a(len(q))
				for j, e := range q {
					lg[j] = float64(e) / 256
				}
				cc := dsp.DCTIIInto(ctx.Counter, lg, NumCepstra, sc.f64b(NumCepstra))
				out[i], slab = toFloat32Carve(cc, slab)
			}
			scratchPool.Put(sc)
			emit(out)
		},
	})
	sink := g.Add(&dataflow.Operator{
		Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			// Results are delivered to the speaker-identification backend.
		},
	})

	pipeline := []*dataflow.Operator{
		source, preemph, hammingOp, prefilt, fft, filtBank, logs, cepstrals, sink,
	}
	g.Chain(pipeline...)
	attachSnapshotCodecs(g)
	return &App{Graph: g, Pipeline: pipeline, Sink: sink}
}

// SampleTrace generates a deterministic audio trace of the given duration
// for profiling.
func (a *App) SampleTrace(seed int64, seconds float64) profile.Input {
	gen := synth.NewAudio(seed, SampleRate)
	frames := int(seconds * FrameRate)
	events := make([]dataflow.Value, frames)
	for i := range events {
		events[i] = gen.Frame(FrameSamples)
	}
	return profile.Input{Source: a.Pipeline[0], Events: events, Rate: FrameRate}
}

// CutpointNames lists the pipeline stages in order; cutting after stage k
// leaves stages 1..k on the node.
func (a *App) CutpointNames() []string {
	names := make([]string, len(a.Pipeline))
	for i, op := range a.Pipeline {
		names[i] = op.Name
	}
	return names
}

// toInt16 converts x into a fresh slice, clamping like toInt16Carve.
func toInt16(x []float64) []int16 {
	out, _ := toInt16Carve(x, make([]int16, len(x)))
	return out
}

// toFloat32 converts x into a fresh slice.
func toFloat32(x []float64) []float32 {
	out, _ := toFloat32Carve(x, make([]float32, len(x)))
	return out
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

func toFloatInto(x []int16, out []float64) []float64 {
	out = out[:len(x)]
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

func toFloat64From32Into(x []float32, out []float64) []float64 {
	out = out[:len(x)]
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

// quantize88 writes x into q as 8.8 fixed point (clamped to ±128) and
// returns q: it halves the log energies' element size, making logs a
// viable (data-reducing) cutpoint as in Figure 5(b).
func quantize88(x []float64, q []int16) []int16 {
	for i, e := range x {
		q[i] = int16(math.Max(-128, math.Min(127, e)) * 256)
	}
	return q
}

// toInt16Carve converts x into the front of slab, clamping to the int16
// range, and returns the converted slice plus the remaining slab.
func toInt16Carve(x []float64, slab []int16) ([]int16, []int16) {
	out := slab[:len(x)]
	for i, v := range x {
		if v > 32767 {
			v = 32767
		} else if v < -32768 {
			v = -32768
		}
		out[i] = int16(v)
	}
	return out, slab[len(x):]
}

// toFloat32Carve converts x into the front of slab and returns the
// converted slice plus the remaining slab.
func toFloat32Carve(x []float64, slab []float32) ([]float32, []float32) {
	out := slab[:len(x)]
	for i, v := range x {
		out[i] = float32(v)
	}
	return out, slab[len(x):]
}
