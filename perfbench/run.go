package main

import (
	"fmt"
	"io"
	"time"
)

// run measures one workload: untraced episodes until d has passed (at
// least p.MinEpisodes), or, when traced, the per-layer run.
func run(p params, workload string, seed uint64, d time.Duration, traced bool, traceOut string, out io.Writer) (result, error) {
	b := newBench(p, seed)
	if traced {
		return b.runTraced(workload, d, traceOut, out)
	}
	t, err := b.untraced(workload, d, p.MinEpisodes)
	if err != nil {
		return result{}, err
	}
	// Any failed operation, a refusal too, makes the run incorrect.
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: t.endToEnd()}
	if err := t.deterministic(); err != nil {
		res.Correct = false
		t.problems = append(t.problems, err.Error())
	}
	t.report(out, workload, seed)
	return res, nil
}

// untraced runs a warm-up episode, then timed episodes until d has
// passed and at least minEpisodes have been timed.
func (b *bench) untraced(workload string, d time.Duration, minEpisodes int) (*tally, error) {
	t := &tally{}
	start := time.Now()
	for ep := 0; ; ep++ {
		// Start another episode only if it should end within d, judged
		// by the mean episode so far.
		if el := time.Since(start); ep > minEpisodes && el+el/time.Duration(ep) > d {
			return t, nil
		}
		et := &tally{}
		if err := b.episode(workload, et, nil, nil); err != nil {
			return nil, err
		}
		if ep == 0 {
			// The first episode warms the process (heap growth, page
			// faults, pools) and is not timed; its answers still count.
			t.warm(et)
			continue
		}
		t.absorb(et)
	}
}

// deterministic checks that every episode's simulated ingest figures are
// bit-identical: host-clock noise must never reach the simulated clock.
func (t *tally) deterministic() error {
	for i, f := range t.perEpisode {
		if f != t.perEpisode[0] {
			return fmt.Errorf("simulated figures differ between episodes: %+v (episode 0) vs %+v (episode %d)", t.perEpisode[0], f, i)
		}
	}
	return nil
}

// gated lists, in order, the end-to-end metrics BENCHMARK.json gates.
// The k-hop latencies and the 1-hop p99 are reported but not gated: on
// ingest-read-mix a run holds under a hundred k-hops, each waiting out a
// varying number of write windows, and the 1-hop tail hinges on a few
// write-window stalls, so between runs they swing by more than any
// useful bound. k-hop cost still moves read_ops_per_s, where the
// closed-loop readers spend about half their time in k-hops.
var gated = []string{
	"setup_s", "ingest_edges_per_s", "ingest_p50_ms", "ingest_p99_ms",
	"read_ops_per_s", "read_1hop_p50_us",
	"sim_ingest_ns_per_edge", "pmem_write_bytes_per_edge", "live_heap_mb",
}

// figures computes every end-to-end figure the report prints.
func (t *tally) figures() map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(t.setups))
	put("ingest_edges_per_s", "1/s", float64(t.ingestEdges)/t.ingestWall.Seconds())
	put("ingest_p50_ms", "ms", t.ingestLat.quantile(0.5)*1e3)
	put("ingest_p99_ms", "ms", t.ingestLat.quantile(0.99)*1e3)
	put("read_ops_per_s", "1/s", float64(t.reads)/t.readWall.Seconds())
	put("read_1hop_p50_us", "us", t.oneHop.quantile(0.5)*1e6)
	put("read_1hop_p99_us", "us", t.oneHop.quantile(0.99)*1e6)
	put("read_khop_p50_ms", "ms", t.kHop.quantile(0.5)*1e3)
	put("read_khop_p99_ms", "ms", t.kHop.quantile(0.99)*1e3)
	put("sim_ingest_ns_per_edge", "ns", t.simMs*1e6/float64(t.ingestEdges))
	put("pmem_write_bytes_per_edge", "B", float64(t.pmemWrite)/float64(t.ingestEdges))
	put("live_heap_mb", "MiB", median(t.heapMB))
	return m
}

// endToEnd is the gated subset of figures.
func (t *tally) endToEnd() map[string]metric {
	all := t.figures()
	m := map[string]metric{}
	for _, name := range gated {
		m[name] = all[name]
	}
	return m
}

// report prints the readable summary: every figure with its unit and
// the sample counts behind it, then each timed episode's own figures.
func (t *tally) report(w io.Writer, workload string, seed uint64) {
	m := t.figures()
	fmt.Fprintf(w, "perfbench %s seed=%d: 1 warm-up and %d timed episodes\n", workload, seed, len(t.setups))
	n := func(d dist) string { return fmt.Sprintf("(n=%d, %d beyond p99)", len(d), d.beyond(0.99)) }
	notes := map[string]string{
		"setup_s":                   fmt.Sprintf("(median of %d set-ups)", len(t.setups)),
		"ingest_edges_per_s":        fmt.Sprintf("(%d edges)", t.ingestEdges),
		"ingest_p50_ms":             n(t.ingestLat),
		"ingest_p99_ms":             n(t.ingestLat),
		"read_ops_per_s":            fmt.Sprintf("(%d reads)", t.reads),
		"read_1hop_p50_us":          n(t.oneHop),
		"read_1hop_p99_us":          n(t.oneHop) + " not gated",
		"read_khop_p50_ms":          n(t.kHop) + " not gated",
		"read_khop_p99_ms":          n(t.kHop) + " not gated",
		"sim_ingest_ns_per_edge":    "(simulated clock)",
		"pmem_write_bytes_per_edge": "(leader media writes)",
		"live_heap_mb":              "(median over episodes)",
	}
	order := []string{"setup_s", "ingest_edges_per_s", "ingest_p50_ms", "ingest_p99_ms", "read_ops_per_s",
		"read_1hop_p50_us", "read_1hop_p99_us", "read_khop_p50_ms", "read_khop_p99_ms",
		"sim_ingest_ns_per_edge", "pmem_write_bytes_per_edge", "live_heap_mb"}
	for _, name := range order {
		fmt.Fprintf(w, "  %-26s %14.4f %-4s %s\n", name, m[name].Value, m[name].Unit, notes[name])
	}
	frac := 0.0
	if t.attempted > 0 {
		frac = float64(t.failed) / float64(t.attempted)
	}
	fmt.Fprintf(w, "  %-26s %14.4f      (%d failed of %d attempted operations, warm-up included; %d refused)\n",
		"failed_frac", frac, t.failed, t.attempted, t.refused)
	if len(t.genLate) > 0 {
		fmt.Fprintf(w, "  %-26s %14.4f ms   (open-loop generator, max over %d reads)\n",
			"bench.gen_max_late_ms", t.genLate.quantile(1)*1e3, len(t.genLate))
	}
	for _, name := range order[1:9] { // the host-clock figures
		fmt.Fprintf(w, "  episodes %-22s", name)
		for _, e := range t.episodes {
			fmt.Fprintf(w, " %.4g", e[name].Value)
		}
		fmt.Fprintln(w)
	}
	for _, p := range t.problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}
