// Command perfbench is the repository's end-to-end benchmark of
// xpgraphd: an in-process cluster of 2 shards with 1 log-shipping
// replica each, served over loopback HTTP and driven through the typed
// client. See README.md for the workloads, metrics and how to run it.
//
//	perfbench --workload ingest-bin --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// readable report with sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/shard"
)

func main() {
	workload := flag.String("workload", "", "workload: ingest-bin, read-skew or ingest-read-mix")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same edge stream and read sequence")
	seconds := flag.Float64("seconds", 35, "measure episodes until this many seconds have passed")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced episode")
	traceOut := flag.String("trace-out", "", "Chrome trace-event file of the traced episode (default .bench_build/trace-<workload>-<seed>.json)")
	flag.Parse()
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		os.Exit(2)
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
	}
	res, err := run(full(), *workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceOut, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// ownerFunc maps a vertex to its shard exactly as the cluster does.
func ownerFunc(p params) func(graph.VID) int {
	m, err := shard.NewSlotMap(p.Shards, 0)
	if err != nil {
		panic(err)
	}
	return m.Owner
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
