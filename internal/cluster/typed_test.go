package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/prop"
	"repro/internal/rng"
	"repro/internal/xpsim"
)

// newTypedStore is newStore with the property layer attached.
func newTypedStore(t *testing.T, name string) *core.Store {
	t.Helper()
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	st, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
		Name: name, NumVertices: 1 << 10, LogCapacity: 1 << 16,
		ArchiveThreshold: 1 << 8, ArchiveThreads: 2, Props: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newTypedCluster(t *testing.T, shards, replicas int, cfg Config) *Cluster {
	t.Helper()
	stores := make([]*core.Store, shards)
	for i := range stores {
		stores[i] = newTypedStore(t, fmt.Sprintf("tshard%d", i))
	}
	cfg.Replicas = replicas
	if replicas > 0 {
		cfg.ReplicaFactory = func(shardID, replica int) (*core.Store, error) {
			return newTypedStore(t, fmt.Sprintf("tshard%d-replica%d", shardID, replica)), nil
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

// typedWorkload builds distinct typed edges spanning every shard's vertex
// range, plus one property per source vertex.
func typedWorkload(follows, blocks uint16) ([]graph.Edge, []uint16, []graph.PropSet) {
	const n = 600
	edges := make([]graph.Edge, n)
	labels := make([]uint16, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: uint32(i % 200), Dst: uint32(200 + i/200)}
		if i%2 == 0 {
			labels[i] = follows
		} else {
			labels[i] = blocks
		}
	}
	props := make([]graph.PropSet, 200)
	for v := range props {
		props[v] = graph.PropSet{V: uint32(v), Key: 1, Val: int64(v % 50)}
	}
	return edges, labels, props
}

// TestClusterTypedDifferential: a 4-shard cluster with one follower per
// shard, fed typed batches through the routed synchronous path, serves
// the typed view identical to a single store fed the same stream — and
// every follower converges label-for-label and property-for-property
// with its leader.
func TestClusterTypedDifferential(t *testing.T) {
	cl := newTypedCluster(t, 4, 1, Config{})
	single := newTypedStore(t, "tsingle")

	follows, err := cl.RegisterLabel("follows")
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := cl.RegisterLabel("blocks")
	if err != nil {
		t.Fatal(err)
	}
	if sf, err := single.RegisterLabel("follows"); err != nil || sf != follows {
		t.Fatalf("single follows = %d,%v, cluster %d", sf, err, follows)
	}
	if sb, err := single.RegisterLabel("blocks"); err != nil || sb != blocks {
		t.Fatalf("single blocks = %d,%v, cluster %d", sb, err, blocks)
	}

	edges, labels, props := typedWorkload(follows, blocks)
	const chunk = 130
	for off := 0; off < len(edges); off += chunk {
		end := off + chunk
		if end > len(edges) {
			end = len(edges)
		}
		if _, err := cl.IngestTyped(edges[off:end], labels[off:end], nil); err != nil {
			t.Fatalf("typed chunk at %d: %v", off, err)
		}
		if _, err := single.IngestTyped(edges[off:end], labels[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.IngestTyped(nil, nil, props); err != nil {
		t.Fatal(err)
	}
	if err := single.SetProps(props); err != nil {
		t.Fatal(err)
	}
	// Untyped edges ride the plain routed path into the same stores.
	plain := testEdges(300)
	ingestChunks(t, cl, plain, 100)
	if _, err := single.Ingest(plain); err != nil {
		t.Fatal(err)
	}

	cv := cl.AcquireView()
	defer cv.Release()
	if got := cv.Labels(); len(got) != 3 || got[follows] != "follows" || got[blocks] != "blocks" {
		t.Fatalf("cluster label table = %v", got)
	}
	if id, ok := cv.LabelID("blocks"); !ok || id != blocks {
		t.Fatalf("LabelID(blocks) = %d,%v", id, ok)
	}
	filters := []prop.Filter{
		{},
		{Types: []uint16{follows}},
		{Types: []uint16{follows, blocks}},
		{Key: 1, Op: prop.OpGe, Val: 25},
		{Types: []uint16{blocks}, Key: 1, Op: prop.OpLt, Val: 10},
	}
	want := difftest.Read(single, 1)
	if err := difftest.Check(cv, want, difftest.Opts{}); err != nil {
		t.Fatalf("cluster vs single: %v", err)
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	for v := graph.VID(0); v < 256; v++ {
		for _, f := range filters {
			var got []uint32
			if err := cv.Visit(ctx, graph.Out, v, f, func(n uint32) { got = append(got, n) }); err != nil {
				t.Fatal(err)
			}
			if diff := difftest.Diff(got, want.Want(graph.Out, v, f)); diff != "" {
				t.Fatalf("out(%d) filter %+v: %s", v, f, diff)
			}
		}
	}

	// Followers converge typed-for-typed with their leaders.
	waitReplicasCaughtUp(t, cl)
	for i := 0; i < cl.Shards(); i++ {
		leader := cl.Shard(i).Store()
		owned := difftest.Opts{Only: func(v graph.VID) bool { return cl.Owner(v) == i }}
		for _, r := range cl.Shard(i).Replicas() {
			if err := difftest.Check(r.Store(), difftest.Read(leader, 1), owned); err != nil {
				t.Fatalf("shard %d replica vs leader: %v", i, err)
			}
		}
	}
}

// TestClusterTypedFailClosed pins the down-shard behavior of the typed
// write path: label registration refuses while any shard is down, and a
// typed batch routed to the dead shard names it.
func TestClusterTypedFailClosed(t *testing.T) {
	cl := newTypedCluster(t, 2, 0, Config{})
	if _, err := cl.RegisterLabel("follows"); err != nil {
		t.Fatal(err)
	}
	cl.KillShard(1)

	var se *ShardError
	if _, err := cl.RegisterLabel("blocks"); !errors.As(err, &se) || !errors.Is(err, ErrShardDown) {
		t.Fatalf("RegisterLabel with dead shard = %v, want ShardError{ErrShardDown}", err)
	}
	// An edge owned by the dead shard fails with its name; one owned by
	// the live shard still lands.
	var deadV, liveV graph.VID
	for v := graph.VID(0); v < 256; v++ {
		if cl.Owner(v) == 1 {
			deadV = v
		} else {
			liveV = v
		}
	}
	if _, err := cl.IngestTyped([]graph.Edge{{Src: uint32(deadV), Dst: 1}}, []uint16{1}, nil); !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("typed ingest to dead shard = %v, want ShardError{Shard: 1}", err)
	}
	if _, err := cl.IngestTyped([]graph.Edge{{Src: uint32(liveV), Dst: 1}}, []uint16{1}, nil); err != nil {
		t.Fatalf("typed ingest to live shard: %v", err)
	}
}

// waitShipped polls until every follower has applied everything its
// leader recorded on the ship stream.
func waitShipped(t *testing.T, cl *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < cl.Shards(); i++ {
		sh := cl.Shard(i)
		for _, r := range sh.Replicas() {
			for r.NextSeq() != sh.ShipSeq()+1 {
				if r.State() != "running" || time.Now().After(deadline) {
					t.Fatalf("shard %d replica: state %s, next seq %d, leader ship seq %d",
						i, r.State(), r.NextSeq(), sh.ShipSeq())
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
}

// TestTypedReplicaReplaysLeaderCommits is the leader/follower
// equivalence check of the one commit step: a seeded stream mixing
// pipelined and bulk plain chunks (with deletions), typed edges,
// property writes and label defs is committed on a 2-shard leader set
// with two followers per shard, and after every operation — at most one
// shipped entry per shard — each follower's published view matches its
// leader's store exactly: adjacency, labels, label table and properties.
func TestTypedReplicaReplaysLeaderCommits(t *testing.T) {
	cl := newTypedCluster(t, 2, 2, Config{})
	s := rng.Stream(0x5EED_C0DE)
	plain := difftest.Stream(8, 4000, 0.15, 7)
	labels := []uint16{graph.DefaultLabel}
	steps := 48
	if testing.Short() {
		steps = 24
	}
	for step := 0; step < steps; step++ {
		var err error
		switch op := s.Uint64n(5); op {
		case 0, 1: // plain chunk: pipelined, or the bulk-load path
			n := 1 + int(s.Uint64n(64))
			chunk := plain[:min(n, len(plain))]
			plain = plain[len(chunk):]
			if op == 0 {
				_, err = cl.Ingest(chunk, true)
			} else {
				_, err = cl.IngestLocal(chunk)
			}
		case 2: // typed edges, some with a short labels slice
			n := 1 + int(s.Uint64n(48))
			edges := make([]graph.Edge, n)
			lbls := make([]uint16, n-int(s.Uint64n(2)))
			for i := range edges {
				edges[i] = graph.Edge{Src: graph.VID(s.Uint64n(256)), Dst: graph.VID(s.Uint64n(256))}
			}
			for i := range lbls {
				lbls[i] = labels[s.Uint64n(uint64(len(labels)))]
			}
			_, err = cl.IngestTyped(edges, lbls, nil)
		case 3: // property writes, last-write-wins
			props := make([]graph.PropSet, 1+s.Uint64n(16))
			for i := range props {
				props[i] = graph.PropSet{V: graph.VID(s.Uint64n(256)), Key: uint16(1 + s.Uint64n(2)), Val: int64(s.Uint64n(100))}
			}
			_, err = cl.IngestTyped(nil, nil, props)
		case 4: // label def broadcast
			var id uint16
			id, err = cl.RegisterLabel(fmt.Sprintf("l%d", step))
			labels = append(labels, id)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		waitShipped(t, cl)
		for i := 0; i < cl.Shards(); i++ {
			want := difftest.Read(cl.Shard(i).Store(), 1, 2)
			for ri, r := range cl.Shard(i).Replicas() {
				v, _, release := r.View()
				err := difftest.Check(v, want, difftest.Opts{})
				release()
				if err != nil {
					t.Fatalf("step %d: shard %d replica %d vs leader: %v", step, i, ri, err)
				}
			}
		}
	}
}
