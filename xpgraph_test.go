package xpgraph_test

import (
	"testing"

	xpgraph "repro"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	m := xpgraph.NewDefaultMachine()
	g, err := xpgraph.Open(m, xpgraph.Options{Name: "api", NumVertices: 64,
		LogCapacity: 1 << 10, ArchiveThreshold: 1 << 6, ArchiveThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdges([]xpgraph.Edge{{Src: 1, Dst: 3}, {Src: 2, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := g.DelEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	ctx := xpgraph.NewQueryCtx(0)
	out := g.Nbrs(ctx, xpgraph.Out, 1, nil)
	if len(out) != 1 || out[0] != 2 {
		t.Fatalf("out(1) = %v, want [2]", out)
	}
	in := g.Nbrs(ctx, xpgraph.In, 1, nil)
	if len(in) != 1 || in[0] != 2 {
		t.Fatalf("in(1) = %v, want [2]", in)
	}
}

func TestPublicAPICrashRecovery(t *testing.T) {
	m := xpgraph.NewDefaultMachine()
	h := xpgraph.NewHeap(m)
	opts := xpgraph.Options{Name: "apirec", NumVertices: 128,
		LogCapacity: 1 << 10, ArchiveThreshold: 1 << 6, ArchiveThreads: 4}
	g, err := xpgraph.New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	edges := xpgraph.RMAT(7, 500, 3)
	if err := g.AddEdges(edges); err != nil {
		t.Fatal(err)
	}
	ctx := xpgraph.NewQueryCtx(0)
	want := len(g.Nbrs(ctx, xpgraph.Out, 0, nil))

	g = nil // crash
	rg, rep, err := xpgraph.Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SimNs <= 0 {
		t.Fatal("recovery must cost simulated time")
	}
	if got := len(rg.Nbrs(ctx, xpgraph.Out, 0, nil)); got != want {
		t.Fatalf("recovered out(0) = %d nbrs, want %d", got, want)
	}
}

func TestDatasetCatalogExported(t *testing.T) {
	if len(xpgraph.Datasets()) != 7 {
		t.Fatal("catalog should expose the seven Table II datasets")
	}
	if _, err := xpgraph.DatasetByName("YW"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSnapshot(t *testing.T) {
	m := xpgraph.NewDefaultMachine()
	g, err := xpgraph.Open(m, xpgraph.Options{Name: "snapapi", NumVertices: 16,
		LogCapacity: 256, ArchiveThreshold: 4, ArchiveThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	ctx := xpgraph.NewQueryCtx(0)
	snap := g.Snapshot(ctx)
	if err := g.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	old := xpgraph.Graph{Source: snap}.NbrsOut(ctx, 1, nil)
	if len(old) != 1 || old[0] != 2 {
		t.Fatalf("snapshot view = %v, want [2]", old)
	}
	if live := g.Nbrs(ctx, xpgraph.Out, 1, nil); len(live) != 2 {
		t.Fatalf("live view = %v", live)
	}
}
