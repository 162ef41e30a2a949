package xpgraph_test

import (
	"fmt"
	"sort"

	xpgraph "repro"
)

// The canonical session: open a store on the simulated two-socket Optane
// machine, apply updates, and read the merged neighbor view.
func Example() {
	machine := xpgraph.NewDefaultMachine()
	g, err := xpgraph.Open(machine, xpgraph.Options{Name: "example", NumVertices: 8})
	if err != nil {
		panic(err)
	}
	g.AddEdge(1, 2)
	g.AddEdges([]xpgraph.Edge{{Src: 1, Dst: 3}, {Src: 2, Dst: 1}})
	g.DelEdge(1, 3)

	ctx := xpgraph.NewQueryCtx(0)
	nbrs := g.Nbrs(ctx, xpgraph.Out, 1, nil)
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	fmt.Println(nbrs)
	// Output: [2]
}

// Crash recovery: the heap (simulated PMEM) survives; every DRAM
// structure is rebuilt by Recover.
func ExampleRecover() {
	machine := xpgraph.NewDefaultMachine()
	heap := xpgraph.NewHeap(machine)
	opts := xpgraph.Options{Name: "recover-example", NumVertices: 8}

	g, err := xpgraph.New(machine, heap, nil, opts)
	if err != nil {
		panic(err)
	}
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g = nil // crash: the Store and all DRAM state are gone

	recovered, _, err := xpgraph.Recover(machine, heap, nil, opts)
	if err != nil {
		panic(err)
	}
	ctx := xpgraph.NewQueryCtx(0)
	nbrs := recovered.Nbrs(ctx, xpgraph.Out, 1, nil)
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	fmt.Println(nbrs)
	// Output: [2 3]
}

// Snapshots give a stable view while ingestion continues.
func ExampleStore_Snapshot() {
	machine := xpgraph.NewDefaultMachine()
	g, err := xpgraph.Open(machine, xpgraph.Options{Name: "snap-example", NumVertices: 8})
	if err != nil {
		panic(err)
	}
	g.AddEdge(1, 2)

	ctx := xpgraph.NewQueryCtx(0)
	snap := g.Snapshot(ctx)
	g.AddEdge(1, 3) // arrives after the snapshot

	old := xpgraph.Graph{Source: snap}.NbrsOut(ctx, 1, nil)
	live := g.Nbrs(ctx, xpgraph.Out, 1, nil)
	fmt.Println(len(old), len(live))
	// Output: 1 2
}
