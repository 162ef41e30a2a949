package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/xpsim"
)

// layerCounts are the counters the traced episode reads off the
// quiescent cluster before teardown.
type layerCounts struct {
	rejected                int64
	shipAttempts, shipRetry int64
	shipGiveUps, resyncs    int64
	footprint, peak         int64 // bytes, summed over every store's pool
	readLines1hop, hitRatio float64
	// selfRead[khop] is the median over roots of ServeHTTP minus the
	// same read's layer calls: the handler's own time.
	selfRead [2]float64
}

// runTraced is the per-layer run: untraced episodes for half of d, then
// one traced episode that records a span around every layer call,
// bracketed by one untraced episode on either side. A process's episodes
// get faster as it warms, so the two bracketing episodes alone give the
// reference medians the traced one is compared with. Then a standalone
// store replays one shard's parts for the core figures.
func (b *bench) runTraced(workload string, d time.Duration, traceOut string, out io.Writer) (result, error) {
	ut, err := b.untraced(workload, d/2, 1)
	if err != nil {
		return result{}, err
	}

	before, after := &tally{}, &tally{}
	if err := b.episode(workload, before, nil, nil); err != nil {
		return result{}, err
	}
	tr := &tracer{}
	tt := &tally{}
	var lc layerCounts
	if err := b.episode(workload, tt, tr, func(r *rig) { lc = b.countLayers(r) }); err != nil {
		return result{}, err
	}
	if err := b.episode(workload, after, nil, nil); err != nil {
		return result{}, err
	}
	ref := &tally{}
	for _, o := range []*tally{before, after} {
		ref.absorb(o)
		ut.absorb(o)
	}
	cf, err := b.replayCore(workload)
	if err != nil {
		return result{}, err
	}
	if err := tr.writeChrome(traceOut); err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}

	res := result{
		Correct:   ut.failed == 0 && tt.failed == 0,
		Attempted: ut.attempted + tt.attempted,
		Failed:    ut.failed + tt.failed,
	}
	problems := append(append([]string(nil), ut.problems...), tt.problems...)
	// Two-clock determinism: the traced episode's simulated figures
	// equal the untraced ones, which equal each other.
	if err := ut.deterministic(); err != nil {
		res.Correct = false
		problems = append(problems, err.Error())
	}
	if len(ut.perEpisode) > 0 && (len(tt.perEpisode) != 1 || tt.perEpisode[0] != ut.perEpisode[0]) {
		res.Correct = false
		problems = append(problems, fmt.Sprintf("traced simulated figures %+v differ from untraced %+v", tt.perEpisode, ut.perEpisode[0]))
	}
	res.Metrics = b.perLayer(workload, tr, ut, ref, tt, lc, cf)

	fmt.Fprintf(out, "perfbench %s (traced): 1 warm-up, %d untraced and 1 traced episodes; %d spans written to %s\n",
		workload, len(ut.setups), len(tr.spans), traceOut)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, p := range problems {
		fmt.Fprintf(out, "  problem: %s\n", p)
	}
	return res, nil
}

// countLayers reads counters off the quiescent cluster and measures the
// simulated read cost of 1-hop reads with direct view calls, one at a
// time, so the machine-wide counters belong to them alone.
func (b *bench) countLayers(r *rig) layerCounts {
	var lc layerCounts
	for i := 0; i < r.cl.Shards(); i++ {
		sh := r.cl.Shard(i)
		lc.rejected += sh.PipeStats().Rejected
		sc := sh.ShipCounters()
		lc.shipAttempts += sc.Attempts
		lc.shipRetry += sc.Retries
		lc.shipGiveUps += sc.GiveUps
		stores := []*core.Store{sh.Store()}
		for _, rep := range sh.Replicas() {
			lc.resyncs += rep.Counters().Resyncs
			stores = append(stores, rep.Store())
		}
		for _, st := range stores {
			lc.footprint += st.Pool().Footprint()
			lc.peak += st.Pool().Peak()
		}
	}
	const n = 500
	m0 := r.leaderStats()
	cv := r.cl.AcquireView()
	for i := 0; i < n; i++ {
		v := b.in.ops[i%len(b.in.ops)].root
		if _, err := cv.NbrsOutChecked(xpsim.NewCtx(cv.OutNode(v)), v, nil); err != nil {
			break
		}
	}
	cv.Release()
	m := r.leaderStats().Sub(m0)
	lc.readLines1hop = float64(m.MediaReadLines) / n
	if acc := m.BufHits + m.BufMisses; acc > 0 {
		lc.hitRatio = float64(m.BufHits) / float64(acc)
	}
	lc.selfRead[0] = b.handlerSelf(r, false, 400)
	lc.selfRead[1] = b.handlerSelf(r, true, 100)
	return lc
}

// handlerSelf times, root by root on the quiescent cluster, a read's
// layer calls and then Server.ServeHTTP into a recorder for the same
// root. The median difference is the handler's own time: routing,
// request parsing, health gating and writing the response.
func (b *bench) handlerSelf(r *rig, khop bool, n int) float64 {
	var diffs dist
	for _, op := range b.in.ops {
		if len(diffs) == n {
			break
		}
		if op.khop != khop {
			continue
		}
		var hreq *http.Request
		t0 := time.Now()
		if khop {
			_ = r.layerKHop(io.Discard, nil, 0, 0, 0, op.root)
			hreq = httptest.NewRequest(http.MethodPost, "/v1/query/khop", strings.NewReader(fmt.Sprintf(`{"root":%d,"k":2}`, op.root)))
		} else {
			_ = r.layerOut(io.Discard, nil, 0, 0, 0, op.root)
			hreq = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/vertices/%d/out", op.root), nil)
		}
		layer := time.Since(t0)
		t1 := time.Now()
		r.srv.ServeHTTP(httptest.NewRecorder(), hreq)
		diffs.add(time.Since(t1) - layer)
	}
	return diffs.quantile(0.5)
}

// coreFigures are one shard's parts replayed on a standalone store.
type coreFigures struct {
	edges          int64
	hostNs         int64
	mallocs, bytes uint64
	report         core.IngestReport
}

// replayCore builds a standalone store with the shard options, loads
// shard 0's part of the preload, then times Store.Ingest on shard 0's
// part of every batch the workload ingested, with allocation deltas.
func (b *bench) replayCore(workload string) (coreFigures, error) {
	var cf coreFigures
	st, err := newStore(b.p, "core-replay")
	if err != nil {
		return cf, err
	}
	owner := ownerFunc(b.p)
	part := func(edges []graph.Edge) []graph.Edge {
		var p []graph.Edge
		for _, e := range edges {
			if owner(e.Src) == 0 {
				p = append(p, e)
			}
		}
		return p
	}
	if _, err := st.Ingest(part(b.in.preload)); err != nil {
		return cf, err
	}
	var ms0, ms1 runtime.MemStats
	for _, batch := range b.streamOf(workload) {
		p := part(batch)
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		rep, err := st.Ingest(p)
		ns := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return cf, err
		}
		cf.edges += int64(len(p))
		cf.hostNs += ns
		cf.mallocs += ms1.Mallocs - ms0.Mallocs
		cf.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		cf.report.Add(rep)
	}
	return cf, nil
}

// perLayer computes the per-layer metrics of BENCHMARK.json from the
// traced episode's spans and counters; ref holds the two untraced
// episodes that bracket the traced one.
func (b *bench) perLayer(workload string, tr *tracer, ut, ref, tt *tally, lc layerCounts, cf coreFigures) map[string]metric {
	self, total := tr.times()
	med := func(m map[string]dist, name string) float64 { return m[name].quantile(0.5) }
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	be := float64(b.p.BatchEdges)

	// client and transport
	put("client.encode_ns_per_edge", "ns", med(self, "client.encode")*1e9/be)
	put("http.transport_ingest_us", "us", med(self, "http.ingest")*1e6)
	put("http.transport_1hop_us", "us", med(self, "http.1hop")*1e6)

	// server: the handler's own time is ServeHTTP minus the layer calls
	// it makes. Reads are paired root by root on the quiescent cluster;
	// an ingest cannot be replayed, so its two sides are medians over the
	// real-handler and layer-path halves of the batches.
	put("server.self_ingest_us", "us", (med(total, "server.serve.ingest")-med(total, "server.layer.ingest"))*1e6)
	put("server.self_1hop_us", "us", lc.selfRead[0]*1e6)
	put("server.self_khop_us", "us", lc.selfRead[1]*1e6)
	put("server.encode_ingest_us", "us", med(self, "server.encode.ingest")*1e6)
	put("server.encode_1hop_us", "us", med(self, "server.encode.1hop")*1e6)
	put("server.encode_khop_us", "us", med(self, "server.encode.khop")*1e6)

	// ingest pipeline and cluster router
	put("ingest.decode_ns_per_edge", "ns", med(self, "ingest.decode")*1e9/be)
	put("ingest.apply_us", "us", med(total, "ingest.apply")*1e6)
	put("ingest.queue_wait_us", "us", med(total, "ingest.queue_wait")*1e6)
	put("ingest.rejected", "count", float64(lc.rejected))
	put("cluster.ingest_us", "us", med(total, "cluster.ingest")*1e6)
	put("cluster.replica_lag_ms", "ms", med(total, "cluster.replica_lag")*1e3)
	put("cluster.ship_retries", "count", float64(lc.shipRetry))
	put("cluster.ship_giveups", "count", float64(lc.shipGiveUps))
	put("cluster.resyncs", "count", float64(lc.resyncs))
	useful := 1.0
	if lc.shipAttempts > 0 {
		useful = 1 - float64(lc.shipRetry)/float64(lc.shipAttempts)
	}
	put("cluster.ship_useful_frac", "frac", useful)
	acquire := med(total, "cluster.acquire_view") + med(total, "cluster.release")
	put("cluster.acquire_view_us", "us", acquire*1e6)

	// core, replayed standalone
	ce := float64(cf.edges)
	put("core.ingest_ns_per_edge", "ns", float64(cf.hostNs)/ce)
	put("core.allocs_per_edge", "count", float64(cf.mallocs)/ce)
	put("core.alloc_bytes_per_edge", "B", float64(cf.bytes)/ce)
	put("core.sim_log_ns_per_edge", "ns", float64(cf.report.LogNs)/ce)
	put("core.sim_buffer_ns_per_edge", "ns", float64(cf.report.BufferNs)/ce)
	put("core.sim_flush_ns_per_edge", "ns", float64(cf.report.FlushNs)/ce)
	put("core.flush_alls", "count", float64(cf.report.FlushAlls))
	put("core.pool_fallbacks", "count", float64(cf.report.PoolFallbacks))

	// mempool, view, analytics
	put("mempool.footprint_mb", "MiB", float64(lc.footprint)/(1<<20))
	put("mempool.peak_mb", "MiB", float64(lc.peak)/(1<<20))
	put("view.nbrs_out_us", "us", med(total, "view.nbrs_out")*1e6)
	put("analytics.khop_ms", "ms", med(total, "analytics.khop")*1e3)
	put("analytics.khop_reached", "count", tt.reached.quantile(0.5))

	// simulated machine
	put("xpsim.media_write_lines_per_edge", "count", tt.last.MediaLinesPerEdge)
	put("xpsim.write_amplification", "ratio", tt.last.WriteAmp)
	put("xpsim.media_read_lines_per_1hop", "count", lc.readLines1hop)
	put("xpsim.xpbuffer_hit_ratio", "ratio", lc.hitRatio)

	// harness validity
	put("bench.gen_max_late_ms", "ms", ut.genLate.quantile(1)*1e3)
	// The main request is the 1-hop read on read-skew and the ingest
	// batch elsewhere (open-loop reads are timed from when they were due,
	// which no span sees).
	mainTraced, mainUntraced := total["request.ingest"], ref.ingestLat
	if workload == wRead {
		mainTraced, mainUntraced = total["request.1hop"], ref.oneHop
	}
	base := mainUntraced.quantile(0.5)
	put("bench.trace_overhead_frac", "frac", (mainTraced.quantile(0.5)-base)/base)
	// Span coverage, per layer-path request against the bracketing
	// untraced episodes' median request. covered sums the named layers on the blocking path: the
	// transport and every timed layer call, plus, for an ingest, the
	// client's encode of the same batch, timed just before. unattributed
	// is the rest of the traced request: the client's and the handler
	// wrapper's own code outside any layer span. Per request the two add
	// up to the traced request time, so covered_frac is the traced over
	// the untraced time minus unattributed_frac; unattributed_frac is the
	// share no layer claims.
	ingestCovered := map[string]float64{"client.encode": 1, "http.ingest": 1, "ingest.decode": 1,
		"cluster.ingest": 1, "ingest.queue_wait": 1, "ingest.apply": 1, "server.encode.ingest": 1}
	ingestRest := map[string]float64{"request.ingest": 1, "server.layer.ingest": 1, "client.encode": -1}
	readCovered := map[string]float64{"http.1hop": 1, "cluster.acquire_view": 1, "view.nbrs_out": 1,
		"server.encode.1hop": 1, "cluster.release": 1}
	readRest := map[string]float64{"request.1hop": 1, "server.layer.1hop": 1}
	ingestBase, readBase := ref.ingestLat.quantile(0.5), ref.oneHop.quantile(0.5)
	put("bench.ingest_covered_frac", "frac", tr.perRequest("server.layer.ingest", ingestCovered).quantile(0.5)/ingestBase)
	put("bench.ingest_unattributed_frac", "frac", tr.perRequest("server.layer.ingest", ingestRest).quantile(0.5)/ingestBase)
	put("bench.read_covered_frac", "frac", tr.perRequest("server.layer.1hop", readCovered).quantile(0.5)/readBase)
	put("bench.read_unattributed_frac", "frac", tr.perRequest("server.layer.1hop", readRest).quantile(0.5)/readBase)
	return m
}
