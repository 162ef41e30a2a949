package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// BenchmarkIngest measures host-side throughput of the full XPGraph
// pipeline (edges/second of real time; simulated time is the bench
// harness's concern).
func BenchmarkIngest(b *testing.B) {
	edges := gen.RMAT(14, 200_000, 77)
	b.ReportAllocs()
	b.SetBytes(int64(len(edges)) * graph.EdgeBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := xpsim.NewMachine(2, 512<<20, xpsim.DefaultLatency())
		s, err := New(m, pmem.NewHeap(m), nil, Options{Name: "bench",
			NumVertices: 1 << 14, ArchiveThreads: 8, AdjBytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Ingest(edges); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryNbrs measures the merged neighbor view read path.
func BenchmarkQueryNbrs(b *testing.B) {
	edges := gen.RMAT(14, 200_000, 78)
	m := xpsim.NewMachine(2, 512<<20, xpsim.DefaultLatency())
	s, err := New(m, pmem.NewHeap(m), nil, Options{Name: "benchq",
		NumVertices: 1 << 14, ArchiveThreads: 8, AdjBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Ingest(edges); err != nil {
		b.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	var dst []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.Nbrs(ctx, Out, graph.VID(i)&((1<<14)-1), dst[:0])
	}
}
