package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// of builds a sample from values.
func of(vals ...float64) *Sample {
	s := &Sample{}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

func TestEmptySample(t *testing.T) {
	s := &Sample{}
	if s.Mean() != 0 || s.Stddev() != 0 || s.CI95() != 0 {
		t.Fatal("empty sample not all-zero")
	}
}

func TestBasicMoments(t *testing.T) {
	s := of(2, 4, 4, 4, 5, 5, 7, 9)
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if got := s.Stddev(); math.Abs(got-2.138) > 0.001 {
		t.Fatalf("stddev = %v", got)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	small := of(1, 2, 3, 4)
	big := &Sample{}
	for i := 0; i < 16; i++ {
		big.Add(float64(1 + i%4))
	}
	if big.CI95() >= small.CI95() {
		t.Fatalf("CI95 did not shrink: %v vs %v", big.CI95(), small.CI95())
	}
}

func TestStatsOrderInvariantProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		fwd := &Sample{}
		rev := &Sample{}
		for _, v := range raw {
			fwd.Add(float64(v))
		}
		for i := len(raw) - 1; i >= 0; i-- {
			rev.Add(float64(raw[i]))
		}
		return fwd.Mean() == rev.Mean()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMeanMaxOrderingProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		s := &Sample{}
		for _, v := range raw {
			s.Add(float64(v))
		}
		lo, hi := float64(slices.Min(raw)), float64(slices.Max(raw))
		return lo <= s.Mean()+1e-9 && s.Mean() <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("geomean = %v", got)
	}
	if got := GeoMean([]float64{2, 0, 8, -5}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean skipping nonpositive = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean nonzero")
	}
}
