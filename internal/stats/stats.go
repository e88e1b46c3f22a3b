// Package stats provides the small statistical toolkit used by the
// measurement harnesses: moments, empirical CDFs, least-squares fits and
// streaming accumulators. Everything is dependency-free and deterministic.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation (n-1 denominator) of xs.
// It returns 0 for fewer than two samples.
func Std(xs []float64) float64 {
	_, s := MeanStd(xs)
	return s
}

// MeanStd returns the mean and sample standard deviation of xs in one pass.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// tCrit95 holds the two-sided 95% critical values of Student's t
// distribution for 1..30 degrees of freedom; larger samples use the
// normal approximation 1.960.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the two-sided 95% confidence interval
// for the mean of xs — t·s/√n with Student's t critical values — or 0
// for fewer than two samples, where no variance is identifiable.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	_, std := MeanStd(xs)
	t := 1.960
	if df := n - 1; df <= len(tCrit95) {
		t = tCrit95[df-1]
	}
	return t * std / math.Sqrt(float64(n))
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// sortedWithoutNaNs copies xs, drops NaNs and sorts. sort.Float64s
// leaves NaNs in unspecified positions (every comparison is false), so
// order statistics over a NaN-bearing slice would be garbage; dropping
// them keeps the statistics of the observed values. ±Inf order fine and
// are kept.
func sortedWithoutNaNs(xs []float64) []float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between order statistics. xs need not be sorted. NaN
// samples are ignored; the percentile of no (non-NaN) samples is NaN.
func Percentile(xs []float64, p float64) float64 {
	s := sortedWithoutNaNs(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples (copied, then sorted).
// NaN samples are ignored — a NaN has no place on the real line, and
// sorting one into the order statistics would corrupt every quantile.
func NewCDF(samples []float64) CDF {
	return CDF{sorted: sortedWithoutNaNs(samples)}
}

// Len reports the number of samples backing the CDF.
func (c CDF) Len() int { return len(c.sorted) }

// F returns P(X <= x).
func (c CDF) F(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of samples <= x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the smallest x with F(x) >= p, for p in (0,1].
func (c CDF) Quantile(p float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// ErrFitDegenerate is returned by LinearFit when the x values carry no
// variance, so a slope cannot be identified.
var ErrFitDegenerate = errors.New("stats: degenerate linear fit (no variance in x)")

// LinearFit performs an ordinary least-squares fit y = slope*x + intercept
// and also returns the coefficient of determination r².
func LinearFit(x, y []float64) (slope, intercept, r2 float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, 0, errors.New("stats: need >= 2 paired samples")
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, ErrFitDegenerate
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1, nil
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2, nil
}

// Correlation returns the Pearson correlation coefficient of x and y, or NaN
// when undefined.
func Correlation(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Welford is a streaming mean/variance accumulator (Welford's algorithm).
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N reports the number of samples seen so far.
func (w *Welford) N() int { return w.n }

// Mean reports the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Std reports the running sample standard deviation.
func (w *Welford) Std() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}
