package dsp

import (
	"math"
	"sync"
)

// Precomputed transform plans. FFT twiddles, Hamming windows, and
// DCT-II cosine tables depend only on the transform size, yet the kernels
// originally evaluated math.Cos/math.Sin on every invocation — ~15% of a
// deployment simulation went into recomputing identical tables (see
// ROADMAP). Plans are computed once per size and shared; they hold exactly
// the values the direct evaluation produces (the same math.Cos/math.Sin
// calls, cached), so kernel outputs are bit-identical with and without a
// warm plan.
//
// Cost counters are NOT affected: the counters model the embedded device
// executing the ported C code, which does evaluate cosines at runtime
// (that is precisely why cepstral extraction dominates FPU-less platforms,
// Figure 8). Plan caching is a host-side simulation speedup only.
//
// All plan caches are safe for concurrent use — the partition service
// profiles and simulates many tenants' graphs in parallel against shared
// kernels.

// fftKey identifies one FFT twiddle plan.
type fftKey struct {
	n       int
	inverse bool
}

// fftPlans caches per-size, per-direction twiddle tables: plan[s] holds
// the 2^s twiddles of the butterfly stage of length 2^(s+1).
var fftPlans sync.Map // fftKey → [][]Complex

// fftTwiddles returns the twiddle tables for an n-point FFT (n a power of
// two). Stage s's table is the sequence w_0 = 1, w_{k+1} = w_k·w_len that
// the butterfly loop used to rebuild in every block, where w_len =
// e^{∓2πi/len} is evaluated once with math.Cos/math.Sin (conjugated for
// the inverse, which is exact: cos is even and sin odd in IEEE
// arithmetic). The products are the same operations in the same order,
// so every entry is bit-identical to the running product; the inverse
// runs its own recurrence rather than conjugating the forward one, whose
// signed zeros could differ.
func fftTwiddles(n int, inverse bool) [][]Complex {
	key := fftKey{n: n, inverse: inverse}
	if p, ok := fftPlans.Load(key); ok {
		return p.([][]Complex)
	}
	var plan [][]Complex
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := Complex{math.Cos(ang), math.Sin(ang)}
		if inverse {
			wl.Im = -wl.Im
		}
		tw := make([]Complex, length/2)
		w := Complex{1, 0}
		for k := range tw {
			tw[k] = w
			w = mul(w, wl)
		}
		plan = append(plan, tw)
	}
	p, _ := fftPlans.LoadOrStore(key, plan)
	return p.([][]Complex)
}

// hammingPlans caches per-size Hamming windows.
var hammingPlans sync.Map // int → []float64

// dctKey identifies one DCT-II cosine table.
type dctKey struct{ n, nOut int }

// dctPlans caches DCT-II cosine tables: tbl[k*n+i] = cos(π·k·(i+0.5)/n).
var dctPlans sync.Map // dctKey → []float64

// dctCosTable returns the cached cosine table for an n-point DCT-II
// producing nOut coefficients.
func dctCosTable(n, nOut int) []float64 {
	key := dctKey{n: n, nOut: nOut}
	if p, ok := dctPlans.Load(key); ok {
		return p.([]float64)
	}
	tbl := make([]float64, nOut*n)
	for k := 0; k < nOut; k++ {
		for i := 0; i < n; i++ {
			tbl[k*n+i] = math.Cos(math.Pi * float64(k) * (float64(i) + 0.5) / float64(n))
		}
	}
	p, _ := dctPlans.LoadOrStore(key, tbl)
	return p.([]float64)
}
