package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/xpsim"
)

// params sizes one benchmark episode. full() is what the benchmark
// runs; the self-tests shrink it.
type params struct {
	Vertices     uint32 // initial vertex-ID space of every store
	PMEMGB       int64  // simulated PMEM per NUMA node, GiB
	Shards       int
	Replicas     int
	PreloadScale int    // RMAT scale of the preload (catalog TT)
	PreloadEdges int64  // half of TT
	PreloadSeed  uint64 // catalog seed of TT
	BatchEdges   int    // edges per synchronous XPB1 batch
	Batches      int    // stream batches per ingest episode
	ReadOps      int    // read-skew requests per episode (both clients)
	KHopEvery    int    // one k=2 query per this many reads (5%)
	MixRate      int    // open-loop reads per second on ingest-read-mix
	VerifyReads  int    // closed-loop reads after the ingest-bin stream
	WriteProbe   int    // batches in read-skew's closing write phase
	DegreeChecks int    // sampled degree/replica checks after ingest-bin
	MinEpisodes  int    // episodes per run at least (set-up medians)
}

func full() params {
	tt, _ := gen.ByName("TT")
	return params{
		Vertices:     1 << 20,
		PMEMGB:       4,
		Shards:       2,
		Replicas:     1,
		PreloadScale: tt.Scale,
		PreloadEdges: tt.Edges / 2,
		PreloadSeed:  tt.Seed,
		BatchEdges:   4096,
		Batches:      200,
		ReadOps:      8000,
		KHopEvery:    20,
		MixRate:      100,
		VerifyReads:  2000,
		WriteProbe:   200,
		DegreeChecks: 512,
		MinEpisodes:  3,
	}
}

// newStore builds one node the way xpgraphd does: its own simulated
// machine, NUMA-subgraph placement, 16 archive threads, the property
// layer on, no media guard.
func newStore(p params, name string) (*core.Store, error) {
	m := xpsim.NewMachine(2, p.PMEMGB<<30, xpsim.DefaultLatency())
	return core.New(m, pmem.NewHeap(m), nil, core.Options{
		Name:           name,
		NumVertices:    p.Vertices,
		ArchiveThreads: 16,
		NUMA:           core.NUMASubgraph,
		AdjBytes:       (p.PMEMGB << 30) / 4,
		Props:          true,
		PropLogBytes:   16 << 20,
	})
}

// queryThreads is xpgraphd's default simulated query parallelism.
const queryThreads = 32

// rig is one running cluster served over loopback HTTP.
type rig struct {
	cl     *cluster.Cluster
	srv    *server.Server
	hs     *httptest.Server
	client *client.Client
	// base is the epoch vector after the preload: the stream's batches
	// advance each shard's epoch by one per applied part from here.
	base []uint64

	// Traced episodes only: the span recorder, per-route request
	// counters that alternate the real and layer paths, and the replica
	// lag watcher's queue (sized to hold every batch of an episode).
	tr             *tracer
	nIngest, nRead atomic.Int64
	lag            chan lagProbe
	lagDone        chan struct{}
}

// newRig builds the cluster, starts it, preloads it through
// Cluster.IngestLocal and waits until every replica has caught up.
// wrap, when non-nil, wraps the server's handler (the traced run times
// ServeHTTP through it). Flushing follows only the stores' own
// count-based thresholds: FlushEvery and ScrubEvery stay 0.
func newRig(p params, preload []graph.Edge, wrap func(http.Handler) http.Handler, tr *tracer) (*rig, error) {
	stores := make([]*core.Store, p.Shards)
	for i := range stores {
		st, err := newStore(p, fmt.Sprintf("bench-s%d", i))
		if err != nil {
			return nil, err
		}
		stores[i] = st
	}
	cfg := cluster.Config{
		Replicas:   p.Replicas,
		QueueCap:   1 << 16,
		BatchEdges: 4096,
		Linger:     2 * time.Millisecond,
	}
	if p.Replicas > 0 {
		cfg.ReplicaFactory = func(shardID, replica int) (*core.Store, error) {
			return newStore(p, fmt.Sprintf("bench-s%d-r%d", shardID, replica))
		}
	}
	cl, err := cluster.New(stores, cfg)
	if err != nil {
		return nil, err
	}
	if err := cl.Start(); err != nil {
		cl.Close()
		return nil, err
	}
	if _, err := cl.IngestLocal(preload); err != nil {
		cl.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	srv := server.NewCluster(cl, server.Config{QueryThreads: queryThreads})
	r := &rig{cl: cl, srv: srv, tr: tr}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	if tr != nil {
		h = r.serveWrap(h)
	}
	r.hs = httptest.NewServer(h)
	hc := r.hs.Client()
	if tr != nil {
		hc = &http.Client{Transport: &spanTransport{r: r, base: hc.Transport}}
	}
	// Retries off: a refused request counts as failed, not retried.
	r.client = client.New(r.hs.URL, client.Options{HTTPClient: hc, Retries: -1})
	if err := r.waitReplicas(10 * time.Second); err != nil {
		r.close()
		return nil, err
	}
	r.base = cl.EpochVector()
	if tr != nil {
		r.lag = make(chan lagProbe, p.Batches+p.WriteProbe)
		r.lagDone = make(chan struct{})
		go r.watchLag(r.lagDone)
	}
	return r, nil
}

// waitReplicas blocks until every replica has published its leader's
// current epoch.
func (r *rig) waitReplicas(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if r.replicasAt(r.cl.EpochVector()) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not catch up within %v", limit)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// replicasAt reports whether every replica of shard i has published
// epochs[i].
func (r *rig) replicasAt(epochs []uint64) bool {
	for i := 0; i < r.cl.Shards() && i < len(epochs); i++ {
		for _, rep := range r.cl.Shard(i).Replicas() {
			if rep.Epoch() < epochs[i] {
				return false
			}
		}
	}
	return true
}

// leaderStats sums the simulated device counters of the shard leaders.
func (r *rig) leaderStats() xpsim.Stats {
	var s xpsim.Stats
	for i := 0; i < r.cl.Shards(); i++ {
		s.Add(r.cl.Shard(i).Store().Machine().SnapshotStats())
	}
	return s
}

// close stops the lag watcher, the HTTP listener and the cluster,
// waiting for each.
func (r *rig) close() {
	if r.lag != nil {
		close(r.lag)
		<-r.lagDone
	}
	r.hs.Close()
	r.srv.Close()
}
