package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/tree"
)

// BenchmarkDocWritePath splits the document write and hydrate path into
// its layers, each timed alone on one 4000-node DefaultRandomConfig tree:
//
//   - parse: tree.ParseTerm of the tree's term (the PUT body);
//   - index: NewDocument, the TreeIndex build;
//   - snapshot: Document.Snapshot, the bytes a persist writes;
//   - load: LoadDocument over 8-byte-aligned bytes, the hydration path.
//
// The four sub-benchmarks reproduce the perf ledger's tree.parse,
// consistency.index, snapshot.persist and snapshot.load shares; run with
// -benchmem (ReportAllocs is on) to see the allocation profile per layer.
func BenchmarkDocWritePath(b *testing.B) {
	const n = 4000
	src := tree.Random(rand.New(rand.NewSource(1)), tree.DefaultRandomConfig(n))
	term := src.String()
	doc := NewDocument(src)
	data := alignedCopy(doc.Snapshot())
	if back, err := LoadDocument(data); err != nil || !back.Tree().Equal(src) {
		b.Fatalf("setup: snapshot round trip failed: %v", err)
	}

	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tree.ParseTerm(term); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewDocument(src)
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			doc.Snapshot()
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadDocument(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// alignedCopy copies data into 8-byte-aligned memory, as snapshot.ReadFile
// returns it, so LoadDocument takes its zero-copy path.
func alignedCopy(data []byte) []byte {
	words := make([]uint64, (len(data)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(data))
	copy(out, data)
	return out
}
