// Package dsp provides the signal-processing kernels the paper's two
// applications are built from: FFT, FIR filtering, windowing, pre-emphasis,
// mel filter banks, log-spectra and the DCT (speech detection, §6.2), plus
// polyphase even/odd splitting and magnitude scaling (EEG wavelet
// decomposition, §6.1).
//
// Every kernel takes a *cost.Counter and records the primitive operations
// it performs; a nil counter disables instrumentation at negligible cost.
// The counts are what the profiler converts into per-platform CPU time.
package dsp

import (
	"math"

	"wishbone/internal/cost"
)

// Complex is a complex sample as two float64s; the FFT uses its own type to
// keep operation counting explicit.
type Complex struct {
	Re, Im float64
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT computes the in-place radix-2 decimation-in-time FFT of x. The length
// of x must be a power of two; FFT panics otherwise. When inverse is true
// it computes the unscaled inverse transform (callers divide by len(x)).
//
// Twiddles come from a cached per-size plan (plan.go); the counter still
// records the trig evaluations and twiddle updates the embedded device
// would perform, so profiles are unaffected. Charges are totalled per
// call rather than per butterfly — the counter is a pure count, so the
// totals are identical.
func FFT(c *cost.Counter, x []Complex, inverse bool) {
	n := len(x)
	if n&(n-1) != 0 || n == 0 {
		panic("dsp: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	intOps, swaps := 0, 0
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
			intOps += 2
		}
		j |= bit
		intOps += 2
		if i < j {
			x[i], x[j] = x[j], x[i]
			swaps++
		}
	}
	c.Add(cost.IntOp, intOps)
	c.Add(cost.Load, 2*swaps)
	c.Add(cost.Store, 2*swaps)
	plan := fftTwiddles(n, inverse)
	for _, tw := range plan {
		half := len(tw)
		for start := 0; start < n; start += 2 * half {
			lo, hi := x[start:start+half], x[start+half:start+2*half]
			for k, w := range tw {
				u := lo[k]
				v := mul(hi[k], w)
				lo[k] = Complex{u.Re + v.Re, u.Im + v.Im}
				hi[k] = Complex{u.Re - v.Re, u.Im - v.Im}
			}
		}
	}
	stages := len(plan)
	// Each stage evaluates its twiddle base (two trig calls) and runs n/2
	// butterflies; a butterfly is two complex multiplies (4 mul + 2 add
	// each), four adds, four loads, four stores and a loop branch.
	butterflies := stages * (n / 2)
	c.Add(cost.Trig, 2*stages)
	c.Add(cost.FloatMul, 8*butterflies)
	c.Add(cost.FloatAdd, 8*butterflies)
	c.Add(cost.Load, 4*butterflies)
	c.Add(cost.Store, 4*butterflies)
	c.Add(cost.Branch, butterflies)
}

func mul(a, b Complex) Complex {
	return Complex{a.Re*b.Re - a.Im*b.Im, a.Re*b.Im + a.Im*b.Re}
}

// PowerSpectrum computes the one-sided power spectrum of a real signal.
// The input is zero-padded to the next power of two; the output has
// fftLen/2 bins (bin 0 = DC). The result length is NextPow2(len(x))/2.
func PowerSpectrum(c *cost.Counter, x []float64) []float64 {
	n := NextPow2(len(x))
	return PowerSpectrumInto(c, x, make([]Complex, n), make([]float64, n/2))
}

// PowerSpectrumInto is PowerSpectrum using caller-supplied scratch: buf
// must have len ≥ NextPow2(len(x)) (its contents are overwritten) and out
// len ≥ NextPow2(len(x))/2. It returns the filled prefix of out.
func PowerSpectrumInto(c *cost.Counter, x []float64, buf []Complex, out []float64) []float64 {
	n := NextPow2(len(x))
	buf = buf[:n]
	for i := range buf {
		buf[i] = Complex{}
	}
	for i, v := range x {
		buf[i].Re = v
	}
	c.Add(cost.Store, len(x))
	FFT(c, buf, false)
	out = out[:n/2]
	for i := range out {
		re, im := buf[i].Re, buf[i].Im
		out[i] = re*re + im*im
	}
	c.Add(cost.FloatMul, 2*(n/2))
	c.Add(cost.FloatAdd, n/2)
	c.Add(cost.Store, n/2)
	return out
}

// naiveDFT is the O(n²) reference transform used by tests.
func naiveDFT(x []Complex, inverse bool) []Complex {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	out := make([]Complex, n)
	for k := 0; k < n; k++ {
		var sumRe, sumIm float64
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			wr, wi := math.Cos(ang), math.Sin(ang)
			sumRe += x[t].Re*wr - x[t].Im*wi
			sumIm += x[t].Re*wi + x[t].Im*wr
		}
		out[k] = Complex{sumRe, sumIm}
	}
	return out
}
