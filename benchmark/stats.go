package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantileSorted(sortedCopy(xs), 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates linearly between the closest ranks of the
// sorted series s.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (exclusive
// method), so selfcheck's spreads read the same as the driver's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailPercentile returns the q-quantile of the sorted series only when at
// least ten samples lie beyond it; a tail resting on fewer samples moves
// with single stalls and is reported as unsupported instead.
func tailPercentile(s []float64, q float64) (float64, bool) {
	beyond := int(math.Floor(float64(len(s))*(1-q) + 1e-9)) // 100·(1−0.9) is 9.999… in floating point
	if beyond < 10 {
		return 0, false
	}
	return quantileSorted(s, q), true
}

// cutPieces cuts a measured window into at most n pieces of planned
// length seg and returns, per piece, the index one past its last
// operation. done holds the completion time of every operation,
// ascending, relative to the window start. Piece k ends at the first
// completion at or after (k+1)·seg, so an operation straddling a boundary
// is neither lost nor counted twice. When one operation outlasts a piece,
// the pieces it spans collapse into one.
func cutPieces(done []time.Duration, seg time.Duration, n int) []int {
	ends := make([]int, 0, n)
	i := 0
	for k := 1; k <= n && i < len(done); k++ {
		for i < len(done) {
			i++
			if done[i-1] >= time.Duration(k)*seg {
				break
			}
		}
		ends = append(ends, i)
	}
	return ends
}

// pieceRates returns each piece's completion rate, given cutPieces' ends:
// the images completed in it (perOp per operation) divided by its actual
// length, last completion of the previous piece to its own last, so a
// slow system is not quantised to ±1 call. A stall lowers the rate of the
// pieces it touches only.
func pieceRates(done []time.Duration, ends []int, perOp int) []float64 {
	rates := make([]float64, 0, len(ends))
	var prev time.Duration
	from := 0
	for _, to := range ends {
		if end := done[to-1]; end > prev {
			rates = append(rates, float64((to-from)*perOp)/(end-prev).Seconds())
			prev = end
		}
		from = to
	}
	return rates
}

// pieceMedians returns the median of xs within each piece of cutPieces.
func pieceMedians(xs []float64, ends []int) []float64 {
	out := make([]float64, 0, len(ends))
	from := 0
	for _, to := range ends {
		out = append(out, median(xs[from:to]))
		from = to
	}
	return out
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
