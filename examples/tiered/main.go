// Tiered demonstrates the SSD-supported XPGraph prototype (the paper's
// §V-F future work): when the PMEM adjacency arena is too small for the
// graph, cold adjacency blocks overflow onto a simulated NVMe namespace
// and the store keeps working — slower, but correct.
package main

import (
	"fmt"
	"log"
	"time"

	xpgraph "repro"
	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

func main() {
	edges := xpgraph.RMAT(15, 500_000, 0x55D)

	run := func(name string, adjBytes, ssdBytes int64) *core.Store {
		machine := xpsim.NewMachine(2, 1<<30, xpsim.DefaultLatency())
		s, err := core.New(machine, pmem.NewHeap(machine), nil, core.Options{
			Name:        "tiered",
			NumVertices: 1 << 15,
			AdjBytes:    adjBytes,
			SSDOverflow: ssdBytes,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := s.Ingest(edges)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		u := s.MemUsage()
		fmt.Printf("%-14s ingest %v simulated; %.1f MB adjacency in PMEM, %.1f MB on SSD\n",
			name, time.Duration(rep.TotalNs()), float64(u.PblkPMEM)/1e6, float64(s.SSDBytes())/1e6)
		return s
	}

	fmt.Println("ingesting 500k edges with ample vs starved PMEM arenas:")
	run("ample-pmem", 64<<20, 0)
	s := run("starved+ssd", 256<<10, 256<<20)

	// Queries still resolve correctly against the tiered store.
	ctx := xpgraph.NewQueryCtx(0)
	total := 0
	for v := xpgraph.VID(0); v < 1<<15; v++ {
		total += len(s.Nbrs(ctx, core.Out, v, nil))
	}
	fmt.Printf("tiered store serves all %d edges; query sweep cost %v simulated\n",
		total, ctx.Cost.Duration())
	fmt.Println("\nwithout -SSDOverflow the starved arena would fail with 'region full'.")
}
