package cluster

import (
	"testing"
	"time"

	"repro/internal/difftest"
)

// TestFailoverMidLagEpochMonotonic is the satellite-3 regression test:
// kill a shard leader while its only replica is mid-lag (stalled with
// shipped chunks queued), then watch the failed-over partition catch up
// through repeated AcquireView calls. Two properties are pinned:
//
//  1. the epoch vector never regresses — each acquired view's pinned
//     epoch is >= the previous one's, from the stale mid-lag epoch all
//     the way to convergence on the last shipped epoch;
//  2. every view is edge-for-edge correct *at its pinned epoch*: the
//     replica serves exactly the chunk prefix that epoch covers, never
//     a torn or reordered application.
func TestFailoverMidLagEpochMonotonic(t *testing.T) {
	cl := newCluster(t, 1, 1, Config{Linger: time.Millisecond, BatchEdges: 512})
	sh := cl.Shard(0)
	rep := sh.Replicas()[0]

	// Stall the replica's apply goroutine before any write: the gate
	// blocks it ahead of each chunk's application (outside the replica's
	// lock, so reads and epoch queries keep flowing) while shipped
	// chunks queue in its channel.
	release := make(chan struct{})
	rep.mu.Lock()
	rep.applyGate = func() { <-release }
	rep.mu.Unlock()
	stalled := true
	defer func() {
		if stalled {
			close(release)
		}
	}()

	// Feed chunks synchronously, recording the leader epoch and the
	// cumulative expected adjacency after each one. Each chunk is one
	// Apply (chunk < BatchEdges, sync round-trips), so these are exactly
	// the epochs the replica will publish while catching up. Keep the
	// chunk count under ReplicaQueue so the stalled follower never
	// backpressures the leader.
	all := testEdges(3000)
	wantAt := map[uint64]*difftest.Oracle{1: difftest.New()} // epoch 1: initial empty publication
	const chunk = 300
	for off := 0; off < len(all); off += chunk {
		end := off + chunk
		if end > len(all) {
			end = len(all)
		}
		if _, err := cl.Ingest(all[off:end], true); err != nil {
			t.Fatalf("ingest chunk at %d: %v", off, err)
		}
		wantAt[sh.Epoch()] = difftest.FromEdges(all[:end])
	}
	finalEpoch := sh.Epoch()
	if finalEpoch == 1 {
		t.Fatal("no chunks applied")
	}
	if got := rep.Epoch(); got != 1 {
		t.Fatalf("replica advanced to epoch %d while stalled", got)
	}

	// Leader dies with the replica maximally behind.
	cl.KillShard(0)

	checkAtEpoch := func(cv *ClusterView, epoch uint64) {
		t.Helper()
		want, ok := wantAt[epoch]
		if !ok {
			t.Fatalf("view pinned at epoch %d, which no applied chunk produced", epoch)
		}
		if err := difftest.Check(cv, want, difftest.Opts{}); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}

	// Mid-lag view: the partition serves through the stalled replica at
	// its stale epoch — old data, but consistent old data.
	cv := cl.AcquireView()
	if got := cv.EpochVector()[0]; got != 1 {
		cv.Release()
		t.Fatalf("mid-lag view pinned epoch %d, want the replica's stale 1", got)
	}
	checkAtEpoch(cv, 1)
	cv.Release()

	// Unstall and watch the catch-up: epochs climb monotonically to the
	// last shipped epoch, and every intermediate view serves exactly its
	// pinned epoch's chunk prefix.
	close(release)
	stalled = false
	var last uint64
	deadline := time.Now().Add(10 * time.Second)
	for {
		cv := cl.AcquireView()
		epoch := cv.EpochVector()[0]
		if epoch < last {
			cv.Release()
			t.Fatalf("epoch vector regressed: %d -> %d", last, epoch)
		}
		last = epoch
		checkAtEpoch(cv, epoch)
		cv.Release()
		if epoch == finalEpoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failed-over partition stuck at epoch %d, want %d", epoch, finalEpoch)
		}
		time.Sleep(time.Millisecond)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("replica apply failed during catch-up: %v", err)
	}
}
