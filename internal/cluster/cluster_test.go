package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// newStore builds one store on its own machine — each shard and each
// replica of a cluster is its own simulated PM box.
func newStore(t *testing.T, name string) *core.Store {
	t.Helper()
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	st, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
		Name: name, NumVertices: 1 << 10, LogCapacity: 1 << 16,
		ArchiveThreshold: 1 << 8, ArchiveThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newCluster(t *testing.T, shards, replicas int, cfg Config) *Cluster {
	t.Helper()
	stores := make([]*core.Store, shards)
	for i := range stores {
		stores[i] = newStore(t, fmt.Sprintf("shard%d", i))
	}
	cfg.Replicas = replicas
	if replicas > 0 {
		cfg.ReplicaFactory = func(shardID, replica int) (*core.Store, error) {
			return newStore(t, fmt.Sprintf("shard%d-replica%d", shardID, replica)), nil
		}
	}
	cl, err := New(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func testEdges(n int64) []graph.Edge {
	return gen.Uniform(256, n, 42)
}

// ingestChunks pushes edges through the routed sync path in several
// batches, exercising the fan-out.
func ingestChunks(t *testing.T, cl *Cluster, edges []graph.Edge, chunk int) {
	t.Helper()
	for off := 0; off < len(edges); off += chunk {
		end := off + chunk
		if end > len(edges) {
			end = len(edges)
		}
		if _, err := cl.Ingest(edges[off:end], true); err != nil {
			t.Fatalf("ingest chunk at %d: %v", off, err)
		}
	}
}

// waitReplicasCaughtUp polls until every follower has published the
// leader's current epoch. In these tests every post-initial publication
// ships edges, so the epochs must meet exactly.
func waitReplicasCaughtUp(t *testing.T, cl *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < cl.Shards(); i++ {
		sh := cl.Shard(i)
		want := sh.Epoch()
		for _, r := range sh.Replicas() {
			for r.Epoch() != want {
				if err := r.Err(); err != nil {
					t.Fatalf("shard %d replica failed: %v", i, err)
				}
				if time.Now().After(deadline) {
					t.Fatalf("shard %d replica stuck at epoch %d, want %d", i, r.Epoch(), want)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

func sorted(nbrs []uint32) []uint32 {
	out := append([]uint32(nil), nbrs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterDifferential is the acceptance differential: a 4-shard
// cluster with one follower per shard, fed through the routed pipelines,
// serves reads through its ClusterView identical to a single store fed
// the same edges — neighbor-for-neighbor, degree-for-degree, and
// algorithm-for-algorithm.
func TestClusterDifferential(t *testing.T) {
	edges := testEdges(4000)

	ref := newCluster(t, 1, 0, Config{Linger: time.Millisecond})
	if _, err := ref.IngestLocal(edges); err != nil {
		t.Fatal(err)
	}
	cl := newCluster(t, 4, 1, Config{Linger: time.Millisecond, BatchEdges: 512})
	ingestChunks(t, cl, edges, 700)

	rv := ref.AcquireView()
	defer rv.Release()
	cv := cl.AcquireView()
	defer cv.Release()
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)

	if got, want := cv.NumVertices(), rv.NumVertices(); got != want {
		t.Fatalf("NumVertices = %d, want %d", got, want)
	}
	if len(cv.EpochVector()) != 4 {
		t.Fatalf("epoch vector = %v, want length 4", cv.EpochVector())
	}
	for v := graph.VID(0); v < rv.NumVertices(); v++ {
		refOut := sorted(rv.NbrsOut(ctx, v, nil))
		gotOut := sorted(cv.NbrsOut(ctx, v, nil))
		if !equalU32(refOut, gotOut) {
			t.Fatalf("NbrsOut(%d): cluster %v, single %v", v, gotOut, refOut)
		}
		refIn := sorted(rv.NbrsIn(ctx, v, nil))
		gotIn := sorted(cv.NbrsIn(ctx, v, nil))
		if !equalU32(refIn, gotIn) {
			t.Fatalf("NbrsIn(%d): cluster %v, single %v", v, gotIn, refIn)
		}
		if cv.OutDegree(v) != rv.OutDegree(v) || cv.InDegree(v) != rv.InDegree(v) {
			t.Fatalf("degree(%d): cluster (%d,%d), single (%d,%d)",
				v, cv.OutDegree(v), cv.InDegree(v), rv.OutDegree(v), rv.InDegree(v))
		}
		co, err := cv.NbrsOutChecked(ctx, v, nil)
		if err != nil {
			t.Fatalf("NbrsOutChecked(%d): %v", v, err)
		}
		if !equalU32(sorted(co), refOut) {
			t.Fatalf("NbrsOutChecked(%d) diverges from NbrsOut", v)
		}
	}

	// Whole-graph algorithms over the two views, through the identical
	// view.Source interface the analytics engine requires.
	lm := xpsim.DefaultLatency()
	refEng := analytics.NewEngine(rv, &lm, 4)
	clEng := analytics.NewEngine(cv, &lm, 4)

	rb, cb := refEng.BFS(1), clEng.BFS(1)
	if rb.Visited != cb.Visited || rb.Levels != cb.Levels {
		t.Fatalf("BFS: cluster (%d,%d), single (%d,%d)", cb.Visited, cb.Levels, rb.Visited, rb.Levels)
	}
	rc, cc := refEng.CC(), clEng.CC()
	if rc.Components != cc.Components {
		t.Fatalf("CC: cluster %d, single %d", cc.Components, rc.Components)
	}
	rp, cp := refEng.PageRank(10), clEng.PageRank(10)
	for v := range rp.Ranks {
		if math.Abs(rp.Ranks[v]-cp.Ranks[v]) > 1e-9 {
			t.Fatalf("PageRank[%d]: cluster %g, single %g", v, cp.Ranks[v], rp.Ranks[v])
		}
	}
}

// TestReplicaLagDifferential pins the log-shipping contract: once a
// follower has published shipped epoch E, its store holds edge-for-edge
// what the leader's store held at its publication E — same chunk
// sequence, same order.
func TestReplicaLagDifferential(t *testing.T) {
	cl := newCluster(t, 4, 2, Config{Linger: time.Millisecond, BatchEdges: 256})
	ingestChunks(t, cl, testEdges(3000), 500)
	waitReplicasCaughtUp(t, cl)

	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	for i := 0; i < cl.Shards(); i++ {
		sh := cl.Shard(i)
		leader := sh.Store()
		for ri, r := range sh.Replicas() {
			if got, want := r.Epoch(), sh.Epoch(); got != want {
				t.Fatalf("shard %d replica %d epoch %d, want %d", i, ri, got, want)
			}
			rep := r.Store()
			if got, want := rep.Log().Head(), leader.Log().Head(); got != want {
				t.Fatalf("shard %d replica %d logged %d edges, leader %d", i, ri, got, want)
			}
			for v := graph.VID(0); v < leader.NumVertices(); v++ {
				lo := append([]uint32(nil), leader.Nbrs(ctx, core.Out, v, nil)...)
				ro := rep.Nbrs(ctx, core.Out, v, nil)
				if !equalU32(lo, ro) { // same apply order: exact, unsorted
					t.Fatalf("shard %d replica %d out(%d) = %v, leader %v", i, ri, v, ro, lo)
				}
				li := append([]uint32(nil), leader.Nbrs(ctx, core.In, v, nil)...)
				rin := rep.Nbrs(ctx, core.In, v, nil)
				if !equalU32(li, rin) {
					t.Fatalf("shard %d replica %d in(%d) = %v, leader %v", i, ri, v, rin, li)
				}
			}
		}
	}
}

// ownedBy finds a vertex whose owner is the given shard.
func ownedBy(cl *Cluster, shard int) graph.VID {
	for v := graph.VID(0); ; v++ {
		if cl.Owner(v) == shard {
			return v
		}
	}
}

// TestFailoverToReplica kills one shard and asserts the cluster serves
// on: its partition's reads come from the follower (identical data), the
// other partitions stay writable, and health reports degraded — not
// down.
func TestFailoverToReplica(t *testing.T) {
	edges := testEdges(2000)
	ref := newCluster(t, 1, 0, Config{})
	if _, err := ref.IngestLocal(edges); err != nil {
		t.Fatal(err)
	}
	cl := newCluster(t, 4, 1, Config{Linger: time.Millisecond})
	ingestChunks(t, cl, edges, 512)
	waitReplicasCaughtUp(t, cl)

	const victim = 1
	cl.KillShard(victim)

	// Reads: every partition still answers, and the victim's partition is
	// served by its caught-up follower — identical to the single store.
	rv := ref.AcquireView()
	defer rv.Release()
	cv := cl.AcquireView()
	defer cv.Release()
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	for v := graph.VID(0); v < rv.NumVertices(); v++ {
		if !equalU32(sorted(cv.NbrsOut(ctx, v, nil)), sorted(rv.NbrsOut(ctx, v, nil))) {
			t.Fatalf("post-failover NbrsOut(%d) diverges", v)
		}
		if !equalU32(sorted(cv.NbrsIn(ctx, v, nil)), sorted(rv.NbrsIn(ctx, v, nil))) {
			t.Fatalf("post-failover NbrsIn(%d) diverges", v)
		}
		if _, err := cv.NbrsOutChecked(ctx, v, nil); err != nil {
			t.Fatalf("post-failover NbrsOutChecked(%d): %v", v, err)
		}
	}

	// Health: degraded (not down, not readonly), victim down and serving
	// through its replica.
	ch := cl.Health()
	if ch.State != core.HealthDegraded.String() {
		t.Fatalf("cluster state = %q, want degraded", ch.State)
	}
	if !ch.Shards[victim].Down || !ch.Shards[victim].ServingReplica {
		t.Fatalf("victim health = %+v", ch.Shards[victim])
	}
	for i, s := range ch.Shards {
		if i != victim && s.State != core.HealthOK.String() {
			t.Fatalf("surviving shard %d state = %q", i, s.State)
		}
	}

	// Writes: the victim's partition refuses, named; others keep landing.
	deadV := ownedBy(cl, victim)
	_, err := cl.Ingest([]graph.Edge{{Src: deadV, Dst: 9}}, true)
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != victim || !errors.Is(err, ErrShardDown) {
		t.Fatalf("write to dead partition: err = %v, want ShardError{%d, ErrShardDown}", err, victim)
	}
	liveV := ownedBy(cl, (victim+1)%4)
	if _, err := cl.Ingest([]graph.Edge{{Src: liveV, Dst: 9}}, true); err != nil {
		t.Fatalf("write to surviving partition: %v", err)
	}
}

// TestFailoverWithoutReplica: killing a shard with no followers degrades
// its partition typed — checked reads fail PartitionDownError, unchecked
// reads answer empty — while other partitions serve normally.
func TestFailoverWithoutReplica(t *testing.T) {
	cl := newCluster(t, 2, 0, Config{Linger: time.Millisecond})
	ingestChunks(t, cl, testEdges(500), 500)

	const victim = 0
	cl.KillShard(victim)
	cv := cl.AcquireView()
	defer cv.Release()
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)

	deadV, liveV := ownedBy(cl, victim), ownedBy(cl, 1)
	if _, err := cv.NbrsOutChecked(ctx, deadV, nil); err == nil {
		t.Fatal("checked read of dead partition succeeded")
	} else {
		var pd *PartitionDownError
		if !errors.As(err, &pd) || pd.Shard != victim {
			t.Fatalf("err = %v, want PartitionDownError{%d}", err, victim)
		}
	}
	if nbrs := cv.NbrsOut(ctx, deadV, nil); len(nbrs) != 0 {
		t.Fatalf("unchecked read of dead partition returned %v, want empty", nbrs)
	}
	if _, err := cv.NbrsOutChecked(ctx, liveV, nil); err != nil {
		t.Fatalf("surviving partition read: %v", err)
	}
	// In-reads must union every partition; with one down they fail typed
	// rather than answer a silently partial union.
	if _, err := cv.NbrsInChecked(ctx, liveV, nil); err == nil {
		t.Fatal("checked in-read with a dead partition must fail typed")
	}
}

// TestEpochVectorDegenerate pins the single-shard fix: the vector has
// length 1 and its sum is the scalar epoch the API always reported.
func TestEpochVectorDegenerate(t *testing.T) {
	cl := newCluster(t, 1, 0, Config{Linger: time.Millisecond})
	if _, err := cl.Ingest(testEdges(100), true); err != nil {
		t.Fatal(err)
	}
	vec := cl.EpochVector()
	if len(vec) != 1 {
		t.Fatalf("epoch vector = %v, want length 1", vec)
	}
	if got := EpochScalar(vec); got != vec[0] || got != cl.Shard(0).Epoch() {
		t.Fatalf("scalar = %d, vector %v, shard epoch %d", got, vec, cl.Shard(0).Epoch())
	}
}

// TestShutdownConvergence: a graceful Shutdown applies every accepted
// write and drains the followers, so leaders and replicas converge.
func TestShutdownConvergence(t *testing.T) {
	cl := newCluster(t, 2, 1, Config{Linger: time.Millisecond})
	edges := testEdges(1000)
	if _, err := cl.Ingest(edges, false); err != nil { // async: queued only
		t.Fatal(err)
	}
	cl.Shutdown()
	for i := 0; i < cl.Shards(); i++ {
		leader := cl.Shard(i).Store()
		for ri, r := range cl.Shard(i).Replicas() {
			if got, want := r.Store().Log().Head(), leader.Log().Head(); got != want {
				t.Fatalf("shard %d replica %d drained %d edges, leader %d", i, ri, got, want)
			}
		}
	}
}
