// Socialstream is the paper's motivating workload: a continuously evolving
// social graph (follows and unfollows arriving as a stream) interleaved
// with analytics — influencer ranking via PageRank and reachability via
// BFS — all on PMEM-resident data with edge-level crash consistency.
package main

import (
	"fmt"
	"log"
	"time"

	xpgraph "repro"
	"repro/internal/analytics"
)

const (
	scale       = 14 // 16K users
	totalEvents = 400_000
	rounds      = 4
)

func main() {
	machine := xpgraph.NewDefaultMachine()
	g, err := xpgraph.Open(machine, xpgraph.Options{
		Name:        "social",
		NumVertices: 1 << scale,
		NUMA:        xpgraph.NUMASubgraph,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The event stream: a power-law follow graph with ~2% unfollows of
	// previously seen follows.
	follows := xpgraph.RMAT(scale, totalEvents, 0x50C1A1)
	events := make([]xpgraph.Edge, 0, len(follows))
	for i, e := range follows {
		events = append(events, e)
		if i%50 == 49 {
			events = append(events, xpgraph.Del(follows[i-20].Src, follows[i-20].Dst))
		}
	}

	per := len(events) / rounds
	engine := analytics.NewEngine(g, &machine.Lat, 16)
	for r := 0; r < rounds; r++ {
		chunk := events[r*per : (r+1)*per]
		rep, err := g.Ingest(chunk)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: ingested %d events in %v simulated (%d archive batches)\n",
			r+1, rep.Edges, time.Duration(rep.TotalNs()), rep.Batches)

		// Analytics run against the live store: recent updates are
		// served from DRAM vertex buffers, older ones from PMEM.
		pr := engine.PageRank(5)
		top, topV := 0.0, xpgraph.VID(0)
		for v, rank := range pr.Ranks {
			if rank > top {
				top, topV = rank, xpgraph.VID(v)
			}
		}
		ctx := xpgraph.NewQueryCtx(0)
		followers := len(g.Nbrs(ctx, xpgraph.In, topV, nil))
		reach := engine.BFS(topV)
		fmt.Printf("  top influencer: user %d (rank %.5f, %d followers), reaches %d users\n",
			topV, top, followers, reach.Visited)
	}

	u := g.MemUsage()
	fmt.Printf("final footprint: %.1f MB DRAM buffers, %.1f MB PMEM adjacency\n",
		float64(u.VbufDRAM)/1e6, float64(u.PblkPMEM)/1e6)
}
