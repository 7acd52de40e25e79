package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzParseManifest feeds arbitrary bytes to parseManifest as the
// journal of testIdentity. It must never panic. The records it returns
// are indexed 0..n-1, each below Tasks, and Complete implies a record
// for every task and no torn tail. A byte prefix of a golden journal
// parses either to a header error or to a prefix of that golden's
// records, and never to a sealed journal unless it is the whole file.
// The seeds are the golden journals and every truncation of them, so a
// plain `go test` checks the prefix property byte by byte.
func FuzzParseManifest(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "manifest", "*.manifest"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no golden manifests to seed the corpus")
	}
	type golden struct {
		data []byte
		m    *Manifest
	}
	var goldens []golden
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		m, err := parseManifest(testIdentity, data)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		goldens = append(goldens, golden{data, m})
		for i := 0; i <= len(data); i++ {
			f.Add(data[:i])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(testIdentity, data)
		if err != nil {
			if m != nil {
				t.Fatalf("error %v came with a manifest", err)
			}
			return
		}
		if m.Identity != testIdentity || m.Tasks < 0 {
			t.Fatalf("header parsed to identity %.12s, %d tasks", m.Identity, m.Tasks)
		}
		for i, rec := range m.Records {
			if rec.Index != i || rec.Index >= m.Tasks {
				t.Fatalf("record %d has index %d (tasks %d)", i, rec.Index, m.Tasks)
			}
		}
		if m.Complete && (len(m.Records) != m.Tasks || m.Torn) {
			t.Fatalf("complete with %d of %d records, torn=%t", len(m.Records), m.Tasks, m.Torn)
		}
		for _, g := range goldens {
			if !bytes.HasPrefix(g.data, data) {
				continue
			}
			n := len(m.Records)
			if m.Tasks != g.m.Tasks || m.Cache != g.m.Cache || n > len(g.m.Records) ||
				!slices.Equal(m.Records, g.m.Records[:n]) {
				t.Fatalf("prefix of %d bytes parsed to %+v, not a prefix of %+v", len(data), m, g.m)
			}
			if m.Complete && len(data) < len(g.data) {
				t.Fatalf("prefix of %d of %d bytes parsed as complete", len(data), len(g.data))
			}
		}
	})
}
