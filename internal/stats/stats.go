package stats

import "math"

// Sample accumulates repeated measurements of one quantity.
type Sample struct {
	vals []float64
}

// Add appends a measurement.
func (s *Sample) Add(v float64) { s.vals = append(s.vals, v) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Stddev returns the sample standard deviation (n−1 denominator).
func (s *Sample) Stddev() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// under a normal approximation.
func (s *Sample) CI95() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	return 1.96 * s.Stddev() / math.Sqrt(float64(n))
}

// GeoMean returns the geometric mean of positive values; zero or negative
// inputs are skipped (matching how benchmark indexes handle bad runs).
func GeoMean(vals []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
