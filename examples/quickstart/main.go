// Quickstart: open an XPGraph store on the simulated Optane machine, feed
// it a few edge updates, and read neighbor views back through the Table I
// query interfaces.
package main

import (
	"fmt"
	"log"

	xpgraph "repro"
)

func main() {
	// A two-socket machine with PMEM on each socket — the testbed the
	// paper's design targets.
	machine := xpgraph.NewDefaultMachine()

	g, err := xpgraph.Open(machine, xpgraph.Options{
		Name:        "quickstart",
		NumVertices: 16,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Single-edge updates (add_edge / del_edge of the paper's Table I).
	check(g.AddEdge(0, 1))
	check(g.AddEdge(0, 2))
	check(g.AddEdge(1, 2))
	check(g.AddEdge(2, 0))
	check(g.DelEdge(0, 2))

	// Batched updates (add_edges).
	check(g.AddEdges([]xpgraph.Edge{
		{Src: 3, Dst: 0},
		{Src: 3, Dst: 1},
		{Src: 0, Dst: 3},
	}))

	// Queries carry a context: it accumulates the simulated access cost
	// and records which NUMA node the querying thread runs on.
	ctx := xpgraph.NewQueryCtx(0)
	for v := xpgraph.VID(0); v < 4; v++ {
		out := g.Nbrs(ctx, xpgraph.Out, v, nil)
		in := g.Nbrs(ctx, xpgraph.In, v, nil)
		fmt.Printf("vertex %d: out=%v in=%v\n", v, out, in)
	}
	fmt.Printf("query cost: %v of simulated time\n", ctx.Cost.Duration())

	u := g.MemUsage()
	fmt.Printf("memory: %d B meta DRAM, %d B vertex buffers, %d B edge log, %d B adjacency PMEM\n",
		u.MetaDRAM, u.VbufDRAM, u.ElogPMEM, u.PblkPMEM)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
