package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/xpsim"
)

// Workload names.
const (
	wIngest = "ingest-bin"
	wRead   = "read-skew"
	wMix    = "ingest-read-mix"
)

var workloads = []string{wIngest, wRead, wMix}

// tally accumulates one run's untraced measurements across episodes.
type tally struct {
	setups []float64 // seconds per episode set-up
	heapMB []float64 // live heap at the end of each episode

	ingestLat   dist
	ingestEdges int64
	ingestWall  time.Duration
	simMs       float64 // sum of the responses' sim_ms
	pmemWrite   int64   // /v1/stats pmem_media_write_bytes delta
	// perEpisode holds each episode's simulated ingest figures; every
	// episode ingests the same stream into the same state, so they must
	// be identical.
	perEpisode []simFigures
	last       simFigures // the latest ingest phase's figures

	oneHop, kHop dist
	reads        int
	readWall     time.Duration
	genLate      dist // ingest-read-mix: how late each read was issued
	reached      dist // k-hop reached counts

	// episodes holds each finished episode's own end-to-end figures.
	episodes []map[string]metric

	attempted, failed int
	refused           int // failures that were refusals, not wrong answers
	problems          []string
}

// simFigures are the simulated-clock figures of one ingest phase.
type simFigures struct {
	SimNsPerEdge      float64
	PMEMBytesPerEdge  float64
	MediaLinesPerEdge float64
	WriteAmp          float64 // media bytes written per byte requested
}

// fail records one failed operation; wrong marks a wrong answer as
// opposed to a refused or errored request.
func (t *tally) fail(wrong bool, format string, args ...any) {
	t.failed++
	if !wrong {
		t.refused++
	}
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// bench is one run: its parameters, seed-derived inputs and reference.
type bench struct {
	p   params
	in  inputs
	ref *refGraph
	// khopWant caches reference k-hop counts per (root, phase).
	mu       sync.Mutex
	khopWant map[khopKey]int64
	episodes int // episodes started so far
	// wrap, when set, wraps the server handler of every rig (self-tests
	// use it to plant a faulty server).
	wrap func(http.Handler) http.Handler
}

type khopKey struct {
	root  graph.VID
	final bool
}

func newBench(p params, seed uint64) *bench {
	n := max(p.ReadOps, p.VerifyReads, mixOps) * maxEpisodes
	b := &bench{p: p, in: makeInputs(p, seed, n), khopWant: map[khopKey]int64{}}
	numV := 1 << p.PreloadScale
	owner := ownerFunc(p)
	b.ref = newRef(numV, b.in.preload, b.in.batches, p.Shards, owner)
	return b
}

// expectKHop returns the reference k=2 reached count of root with no
// stream batch (final=false) or every stream batch (final=true) applied.
func (b *bench) expectKHop(root graph.VID, final bool) int64 {
	k := khopKey{root, final}
	b.mu.Lock()
	defer b.mu.Unlock()
	if v, ok := b.khopWant[k]; ok {
		return v
	}
	upTo := b.ref.noBatches()
	if final {
		upTo = b.ref.allBatches()
	}
	v := b.ref.khopReached(root, 2, upTo)
	b.khopWant[k] = v
	return v
}

// episode builds a fresh cluster, runs the workload's fixed amount of
// work on it and tears it down. The graph ends every episode in the
// same state, so simulated counters repeat exactly. tr, when set, traces
// the episode; after, when set, runs on the quiescent cluster before
// teardown.
func (b *bench) episode(workload string, t *tally, tr *tracer, after func(*rig)) error {
	runtime.GC()
	start := time.Now()
	r, err := newRig(b.p, b.in.preload, b.wrap, tr)
	if err != nil {
		return err
	}
	t.setups = append(t.setups, time.Since(start).Seconds())
	defer r.close()

	// Every episode replays the same stream but reads its own stretch of
	// the seed's read sequence, so a run samples many roots.
	ep := b.episodes
	b.episodes++
	// Each timed phase starts on a collected heap, so one phase's garbage
	// is not collected on the next one's clock.
	switch workload {
	case wIngest:
		runtime.GC()
		b.ingestPhase(r, b.in.batches, t, true)
		if err := r.waitReplicas(30 * time.Second); err != nil {
			return err
		}
		b.checkFinal(r, t)
		runtime.GC()
		b.readPhase(r, b.opsFor(ep, b.p.VerifyReads), true, t)
	case wRead:
		runtime.GC()
		b.readPhase(r, b.opsFor(ep, b.p.ReadOps), false, t)
		runtime.GC()
		b.ingestPhase(r, b.streamOf(wRead), t, false)
	case wMix:
		runtime.GC()
		b.mixPhase(r, t, b.opsFor(ep, mixOps))
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if after != nil {
		if err := r.waitReplicas(30 * time.Second); err != nil {
			return err
		}
		after(r)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.heapMB = append(t.heapMB, float64(ms.HeapAlloc)/(1<<20))
	return nil
}

// maxEpisodes bounds how many episodes read distinct stretches of the
// read sequence; later ones wrap around. mixOps is the stretch an
// ingest-read-mix episode draws from.
const (
	maxEpisodes = 16
	mixOps      = 4096
)

// opsFor returns episode ep's n reads.
func (b *bench) opsFor(ep, n int) []readOp {
	ops := make([]readOp, n)
	for i := range ops {
		ops[i] = b.in.ops[(ep*n+i)%len(b.in.ops)]
	}
	return ops
}

// streamOf is the part of the stream a workload ingests.
func (b *bench) streamOf(workload string) [][]graph.Edge {
	if workload == wRead {
		return b.in.batches[:b.p.WriteProbe]
	}
	return b.in.batches
}

// epochWatch checks that the epoch vectors one client sees never go
// backwards.
type epochWatch struct{ last []uint64 }

func (w *epochWatch) ok(vec []uint64) bool {
	if w.last != nil {
		if len(vec) != len(w.last) {
			return false
		}
		for i := range vec {
			if vec[i] < w.last[i] {
				return false
			}
		}
	}
	w.last = append(w.last[:0], vec...)
	return true
}

// ingestPhase sends batches as synchronous XPB1 requests from one
// closed-loop client. record marks the phase whose simulated figures
// must repeat across episodes.
func (b *bench) ingestPhase(r *rig, batches [][]graph.Edge, t *tally, record bool) {
	ctx := context.Background()
	st0, err := r.client.Stats(ctx)
	if err != nil {
		t.attempted++
		t.fail(false, "stats: %v", err)
		return
	}
	m0 := r.leaderStats()
	var w epochWatch
	var simMs float64
	var edges int64
	start := time.Now()
	for _, batch := range batches {
		t0 := time.Now()
		res, err := r.ingest(batch)
		lat := time.Since(t0)
		t.attempted++
		switch {
		case err != nil:
			t.fail(false, "ingest: %v", err)
			continue
		case res.Accepted != int64(len(batch)):
			t.fail(true, "ingest accepted %d of %d edges", res.Accepted, len(batch))
			continue
		case !w.ok(res.EpochVector):
			t.fail(true, "ingest epoch vector went backwards: %v after %v", res.EpochVector, w.last)
			continue
		}
		t.ingestLat.add(lat)
		simMs += res.SimMs
		edges += res.Accepted
	}
	t.ingestWall += time.Since(start)
	t.ingestEdges += edges
	t.simMs += simMs
	st1, err := r.client.Stats(ctx)
	if err != nil {
		t.attempted++
		t.fail(false, "stats: %v", err)
		return
	}
	m := r.leaderStats().Sub(m0)
	t.pmemWrite += st1.MediaWriteBytes - st0.MediaWriteBytes
	if edges > 0 {
		t.last = simFigures{
			SimNsPerEdge:      simMs * 1e6 / float64(edges),
			PMEMBytesPerEdge:  float64(st1.MediaWriteBytes-st0.MediaWriteBytes) / float64(edges),
			MediaLinesPerEdge: float64(m.MediaWriteLines) / float64(edges),
			WriteAmp:          m.WriteAmplification(),
		}
		if record {
			t.perEpisode = append(t.perEpisode, t.last)
		}
	}
}

// readPhase runs ops from two closed-loop clients, client c taking ops
// c, c+2, ...; final says whether the whole stream has been applied.
// Every answer is checked against the reference.
func (b *bench) readPhase(r *rig, ops []readOp, final bool, t *tally) {
	const clients = 2
	upTo := b.ref.noBatches()
	if final {
		upTo = b.ref.allBatches()
	}
	// Reference k-hop counts are computed before the clock starts.
	for _, op := range ops {
		if op.khop {
			b.expectKHop(op.root, final)
		}
	}
	parts := make([]tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pt := &parts[c]
			var w epochWatch
			for i := c; i < len(ops); i += clients {
				b.readOne(r, laneReader0+c, ops[i], pt, &w, func(root graph.VID) (msHash, int64) {
					return b.ref.hashAt(root, upTo), b.expectKHop(root, final)
				})
			}
		}(c)
	}
	wg.Wait()
	t.readWall += time.Since(start)
	for i := range parts {
		t.merge(&parts[i])
	}
}

// readOne issues one closed-loop read and checks it with want, which
// returns the expected 1-hop hash and k-hop count of a root.
func (b *bench) readOne(r *rig, lane int, op readOp, t *tally, w *epochWatch, want func(graph.VID) (msHash, int64)) {
	rec, ok := b.issue(r, lane, op, time.Now(), t, w)
	if !ok {
		return
	}
	h, reached := want(op.root)
	switch {
	case op.khop && rec.reached != reached:
		t.fail(true, "khop %d reached %d, reference %d", op.root, rec.reached, reached)
	case !op.khop && rec.hash != h:
		t.fail(true, "out %d: %d neighbors, reference %d (or same count, other members)", op.root, rec.hash.n, h.n)
	}
}

// answer is one read's outcome, kept for checking.
type answer struct {
	op      readOp
	hash    msHash // 1-hop: the neighbor multiset
	reached int64  // k-hop: vertices reached
	vec     []uint64
}

// issue sends one read, records its latency from due, and checks that
// the epoch vector did not go backwards. ok is false when the read
// failed.
func (b *bench) issue(r *rig, lane int, op readOp, due time.Time, t *tally, w *epochWatch) (a answer, ok bool) {
	a.op = op
	t.attempted++
	if op.khop {
		res, err := r.khop(lane, op.root)
		if err != nil {
			t.fail(false, "khop %d: %v", op.root, err)
			return a, false
		}
		t.reads++
		t.kHop.add(time.Since(due))
		t.reached = append(t.reached, float64(res.Reached))
		a.reached, a.vec = res.Reached, res.EpochVector
	} else {
		res, err := r.out(lane, op.root)
		if err != nil {
			t.fail(false, "out %d: %v", op.root, err)
			return a, false
		}
		t.reads++
		t.oneHop.add(time.Since(due))
		a.hash, a.vec = hashOf(res.Neighbors), res.EpochVector
	}
	if !w.ok(a.vec) {
		t.fail(true, "read %d: epoch vector went backwards", op.root)
		return a, false
	}
	return a, true
}

// warm keeps only a warm-up episode's correctness outcome.
func (t *tally) warm(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	t.perEpisode = append(t.perEpisode, o.perEpisode...)
	for _, p := range o.problems {
		if len(t.problems) < 8 {
			t.problems = append(t.problems, p)
		}
	}
}

// absorb merges a finished episode's tally into the run's.
func (t *tally) absorb(o *tally) {
	t.setups = append(t.setups, o.setups...)
	t.heapMB = append(t.heapMB, o.heapMB...)
	t.mergeIngest(o)
	t.perEpisode = append(t.perEpisode, o.perEpisode...)
	t.readWall += o.readWall
	t.episodes = append(t.episodes, o.figures())
	t.merge(o)
}

// mergeIngest adds o's ingest-phase measurements.
func (t *tally) mergeIngest(o *tally) {
	t.ingestLat = append(t.ingestLat, o.ingestLat...)
	t.ingestEdges += o.ingestEdges
	t.ingestWall += o.ingestWall
	t.simMs += o.simMs
	t.pmemWrite += o.pmemWrite
	t.last = o.last
}

// merge adds o's read samples and operation counts.
func (t *tally) merge(o *tally) {
	t.oneHop = append(t.oneHop, o.oneHop...)
	t.kHop = append(t.kHop, o.kHop...)
	t.genLate = append(t.genLate, o.genLate...)
	t.reached = append(t.reached, o.reached...)
	t.reads += o.reads
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	for _, p := range o.problems {
		if len(t.problems) < 8 {
			t.problems = append(t.problems, p)
		}
	}
}

// checkFinal runs after the ingest-bin stream: sampled degree answers
// must equal the reference, and each replica must hold its leader's
// adjacency on those vertices.
func (b *bench) checkFinal(r *rig, t *tally) {
	ctx := context.Background()
	g := rng{s: mix64(uint64(len(b.in.batches)) ^ 0xDE6_C4EC)}
	stream := b.in.batches
	for i := 0; i < b.p.DegreeChecks; i++ {
		batch := stream[g.next()%uint64(len(stream))]
		e := batch[g.next()%uint64(len(batch))]
		for _, v := range []graph.VID{e.Src, e.Dst} {
			t.attempted++
			d, err := r.client.Degree(ctx, v)
			if err != nil {
				t.fail(false, "degree %d: %v", v, err)
				continue
			}
			wantOut := b.ref.hashAt(v, b.ref.allBatches()).n
			if d.Out != wantOut || d.In != b.ref.inFinal[v] {
				t.fail(true, "degree %d: out %d in %d, reference out %d in %d", v, d.Out, d.In, wantOut, b.ref.inFinal[v])
			}
			t.attempted++
			if err := r.replicaMatches(v); err != nil {
				t.fail(true, "replica: %v", err)
			}
		}
	}
}

// replicaMatches compares v's out-adjacency on every replica of its
// owner shard with the leader's.
func (r *rig) replicaMatches(v graph.VID) error {
	cv := r.cl.AcquireView()
	defer cv.Release()
	lead, err := cv.NbrsOutChecked(xpsim.NewCtx(cv.OutNode(v)), v, nil)
	if err != nil {
		return err
	}
	sh := r.cl.Shard(r.cl.Owner(v))
	for _, rep := range sh.Replicas() {
		rv, _, release := rep.View()
		got := rv.NbrsOut(xpsim.NewCtx(rv.OutNode(v)), v, nil)
		deg := rv.OutDegree(v)
		release()
		if hashOf(got) != hashOf(lead) || deg != cv.OutDegree(v) {
			return fmt.Errorf("vertex %d: replica has %d neighbors (degree %d), leader %d (degree %d)",
				v, len(got), deg, len(lead), cv.OutDegree(v))
		}
	}
	return nil
}

// mixPhase runs the ingest-bin writer beside one open-loop reader that
// issues the read-skew mix at MixRate until the writer's stream ends.
// Each read is timed from when it was due; every answer must equal the
// reference at the epoch vector it reports.
func (b *bench) mixPhase(r *rig, t *tally, ops []readOp) {
	done := make(chan struct{})
	var wt tally
	go func() {
		defer close(done)
		b.ingestPhase(r, b.in.batches, &wt, false)
	}()

	var rt tally
	var w epochWatch
	var log []answer
	interval := time.Second / time.Duration(b.p.MixRate)
	stopped := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	start := time.Now()
	for k := 0; !stopped(); k++ {
		due := start.Add(time.Duration(k) * interval)
		select {
		case <-done:
			continue
		case <-time.After(time.Until(due)):
		}
		rt.genLate.add(time.Since(due))
		if a, ok := b.issue(r, laneReader0, ops[k%len(ops)], due, &rt, &w); ok {
			log = append(log, a)
		}
	}
	t.readWall += time.Since(start)
	<-done
	t.mergeIngest(&wt)
	t.merge(&wt)
	t.merge(&rt)

	// Each answer must be exactly the preload plus the stream prefix its
	// epoch vector names, which also puts it between the preload and the
	// final graph.
	for _, rec := range log {
		upTo, ok := b.ref.bounds(rec.vec, r.base)
		if !ok {
			t.fail(true, "read %d: epoch vector %v not explained by the stream (base %v)", rec.op.root, rec.vec, r.base)
			continue
		}
		if rec.op.khop {
			if want := b.ref.khopReached(rec.op.root, 2, upTo); rec.reached != want {
				t.fail(true, "khop %d reached %d, reference %d at %v", rec.op.root, rec.reached, want, rec.vec)
			}
		} else if want := b.ref.hashAt(rec.op.root, upTo); rec.hash != want {
			t.fail(true, "out %d: %d neighbors, reference %d at %v", rec.op.root, rec.hash.n, want.n, rec.vec)
		}
	}
}
