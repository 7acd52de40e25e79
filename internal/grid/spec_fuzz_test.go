package grid

import (
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSpec feeds arbitrary documents to ParseSpec. It must never
// panic, and a spec it accepts must survive a round trip through JSON.
func FuzzParseSpec(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no examples/*.json to seed the corpus")
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return
		}
		out, err := sp.JSON()
		if err != nil {
			t.Fatalf("JSON of an accepted spec: %v", err)
		}
		back, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("ParseSpec rejects its own JSON %s: %v", out, err)
		}
		if !reflect.DeepEqual(back, sp) {
			t.Fatalf("round trip changed the spec:\n got %#v\nwant %#v", back, sp)
		}
	})
}

// intAxes reads each integer axis, the axes whose -set values accept
// ranges.
var intAxes = map[string]func(*Spec) []int{
	"machines":        func(sp *Spec) []int { return sp.Machines },
	"minutes":         func(sp *Spec) []int { return sp.Minutes },
	"replication":     func(sp *Spec) []int { return sp.Replication },
	"chunks_per_unit": func(sp *Spec) []int { return sp.ChunksPerUnit },
}

// FuzzSpecSet feeds arbitrary assignments to Spec.Set. It must never
// panic, and an integer axis it accepts must hold, for each comma item,
// values inside that item's [lo, hi] in strictly increasing order:
// exactly the values an overflow-free expansion of the item gives.
func FuzzSpecSet(f *testing.F) {
	for _, assign := range specSetAssigns {
		f.Add(assign)
	}
	for _, tc := range specSetRanges {
		f.Add(tc.assign)
	}
	for _, tc := range specSetErrors {
		f.Add(tc.assign)
	}
	f.Fuzz(func(t *testing.T, assign string) {
		var sp Spec
		if sp.Set(assign) != nil {
			return
		}
		name, list, _ := strings.Cut(assign, "=")
		axis, ok := intAxes[strings.TrimSpace(name)]
		if !ok {
			return
		}
		got := axis(&sp)
		for _, item := range strings.Split(list, ",") {
			lo, hi, step, mul, err := parseRange(strings.TrimSpace(item))
			if err != nil {
				t.Fatalf("Set(%q) accepted item %q that does not parse: %v", assign, item, err)
			}
			want := expandRange(lo, hi, step, mul)
			seg := got[:min(len(want), len(got))]
			for j, v := range seg {
				if v < lo || v > hi || j > 0 && v <= seg[j-1] {
					t.Fatalf("Set(%q): item %q gives %v, not strictly increasing inside [%d, %d]", assign, item, seg, lo, hi)
				}
			}
			if !reflect.DeepEqual(seg, want) {
				t.Fatalf("Set(%q): item %q gives %v, want %v", assign, item, seg, want)
			}
			got = got[len(seg):]
		}
		if len(got) > 0 {
			t.Fatalf("Set(%q): %v left over after the last item", assign, got)
		}
	})
}

// expandRange expands one range item in arbitrary precision, up to one
// value past MaxSweepPoints: the values lo, lo∘step, ... that do not
// pass hi, where ∘ is * or +.
func expandRange(lo, hi, step int, mul bool) []int {
	var out []int
	h, s := big.NewInt(int64(hi)), big.NewInt(int64(step))
	for v := big.NewInt(int64(lo)); v.Cmp(h) <= 0 && len(out) <= MaxSweepPoints; {
		out = append(out, int(v.Int64()))
		if mul {
			v.Mul(v, s)
		} else {
			v.Add(v, s)
		}
	}
	return out
}
