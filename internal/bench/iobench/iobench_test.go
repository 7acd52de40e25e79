package iobench

import (
	"reflect"
	"testing"

	"vmdg/internal/cost"
)

func TestSizesSweep(t *testing.T) {
	s := Sizes()
	if len(s) != 9 {
		t.Fatalf("%d sizes, want 9 (128K..32M doubling)", len(s))
	}
	if s[0] != 128<<10 || s[len(s)-1] != 32<<20 {
		t.Fatalf("sweep endpoints: %d..%d", s[0], s[len(s)-1])
	}
	for i := 1; i < len(s); i++ {
		if s[i] != 2*s[i-1] {
			t.Fatalf("size %d not double of predecessor", s[i])
		}
	}
}

func TestWriteProfileShape(t *testing.T) {
	p := WriteProfile(256 << 10)
	_, written := p.TotalDiskBytes()
	if written != 256<<10 {
		t.Fatalf("write bytes = %d", written)
	}
	var syncs, writes int
	for _, st := range p.Steps {
		switch st.Kind {
		case cost.StepDiskSync:
			syncs++
		case cost.StepDiskWrite:
			writes++
			if st.File != FileName(256<<10) {
				t.Fatalf("wrong file %q", st.File)
			}
		}
	}
	if syncs != 1 {
		t.Fatalf("syncs = %d, want 1", syncs)
	}
	if writes != 4 { // 256 KB in 64 KB chunks
		t.Fatalf("writes = %d, want 4", writes)
	}
	if p.TotalCycles() <= 0 {
		t.Fatal("no data-generation compute captured")
	}
}

func TestReadProfileShape(t *testing.T) {
	p := ReadProfile(128 << 10)
	read, _ := p.TotalDiskBytes()
	if read != 128<<10 {
		t.Fatalf("read bytes = %d", read)
	}
	if p.Steps[0].Kind != cost.StepCompute && p.Steps[0].Kind != cost.StepDropCaches {
		t.Fatalf("first step = %v", p.Steps[0].Kind)
	}
	var drops int
	for _, st := range p.Steps {
		if st.Kind == cost.StepDropCaches {
			drops++
		}
	}
	if drops != 1 {
		t.Fatalf("cache drops = %d, want 1", drops)
	}
}

// TestProfileIsWriteThenRead pins Profile(size) to the write phase
// followed by the read phase, step for step, at every size of the sweep
// and at two sizes that end in a short chunk.
func TestProfileIsWriteThenRead(t *testing.T) {
	for _, size := range append(Sizes(), 192<<10, 1<<20+12345) {
		want := append(WriteProfile(size).Steps, ReadProfile(size).Steps...)
		if got := Profile(size).Steps; !reflect.DeepEqual(got, want) {
			t.Errorf("Profile(%d): %d steps differ from the %d of its write and read phases", size, len(got), len(want))
		}
	}
}

func TestOffsetsAreContiguous(t *testing.T) {
	p := WriteProfile(192 << 10) // non-power-of-two: final short chunk
	var next int64
	for _, st := range p.Steps {
		if st.Kind != cost.StepDiskWrite {
			continue
		}
		if st.Offset != next {
			t.Fatalf("write at %d, want %d", st.Offset, next)
		}
		next = st.Offset + st.Bytes
	}
	if next != 192<<10 {
		t.Fatalf("total written %d", next)
	}
}
