package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// Compile-time proof that a snapshot is a read source — the ClusterView
// delegates to per-shard snapshots through exactly this interface.
var (
	_ view.Source = (*core.Snapshot)(nil)
	_ view.Source = (*ClusterView)(nil)
)

// PartitionDownError is returned by reads of a partition whose leader is
// down and which has no live replica to fail over to. The unchecked
// algorithm surface of view.Graph drops it, so such a partition reads as
// empty there (analytics is health-gated at the HTTP layer, so this only
// shows up when the gate is bypassed deliberately).
type PartitionDownError struct {
	Shard int
}

func (e *PartitionDownError) Error() string {
	return fmt.Sprintf("cluster: partition %d is down and has no live replica", e.Shard)
}

// ClusterView is one consistent read view of the whole cluster: one
// pinned snapshot publication per partition, read through that
// partition's guard so every access is ordered against its writer. It is
// a view.Source, so the HTTP handlers and the analytics engine run over a
// 4-shard cluster through the same interface they run over a single
// snapshot; the embedded view.Graph (over the view itself) supplies the
// direction-fixed conveniences.
//
// Consistency model: the view is per-shard consistent, cross-shard
// loose. Each partition is served at exactly one epoch (the pinned
// publication's), captured in the epoch vector; different partitions may
// be pinned at different points in time. Out-reads of v go to v's owner
// partition only; in-reads union every partition, because an edge (u,v)
// lives with u's owner and so v's in-records scatter across shards.
//
// Failover: a partition whose leader is down is served by its
// best-caught-up live replica; with no such replica the partition's
// sources are nil and reads of it degrade (empty / typed error), while
// every other partition keeps serving.
type ClusterView struct {
	view.Graph
	c    *Cluster
	pins []*published  // per shard; nil when the partition is unservable
	srcs []view.Source // guarded views over pins; nil when unservable
	// epochs is the pinned epoch vector: the publication epoch each
	// partition is served at (0 for an unservable partition).
	epochs []uint64
	// numV is max over sources, captured at acquire so the view's vertex
	// space is stable even as shards publish newer snapshots.
	numV graph.VID
}

// bestReplica picks the follower to fail a dead shard's reads over to:
// the live (no apply error) replica with the highest shipped epoch.
func bestReplica(sh *Shard) *Replica {
	var best *Replica
	var bestEpoch uint64
	for _, r := range sh.replicas {
		if r.Err() != nil {
			continue
		}
		if e := r.Epoch(); best == nil || e > bestEpoch {
			best, bestEpoch = r, e
		}
	}
	return best
}

// AcquireView pins one publication per partition — the leader's, or the
// best live replica's when the leader is down — and returns the
// composite read view. The caller must Release it.
func (c *Cluster) AcquireView() *ClusterView {
	cv := &ClusterView{
		c:      c,
		pins:   make([]*published, len(c.shards)),
		srcs:   make([]view.Source, len(c.shards)),
		epochs: make([]uint64, len(c.shards)),
	}
	cv.Graph = view.Graph{Source: cv}
	for i, sh := range c.shards {
		if !sh.down.Load() {
			p := sh.acquire()
			cv.pins[i] = p
			cv.srcs[i] = view.Guard(p.snap, &sh.mu)
			cv.epochs[i] = p.epoch
		} else if r := bestReplica(sh); r != nil {
			p := r.acquire()
			cv.pins[i] = p
			cv.srcs[i] = view.Guard(p.snap, &r.mu)
			cv.epochs[i] = p.epoch
		}
		if s := cv.srcs[i]; s != nil {
			if nv := s.NumVertices(); nv > cv.numV {
				cv.numV = nv
			}
		}
	}
	return cv
}

// Release unpins every publication. The view must not be used after.
func (cv *ClusterView) Release() {
	for i, p := range cv.pins {
		if p != nil {
			p.unref()
			cv.pins[i] = nil
			cv.srcs[i] = nil
		}
	}
}

// EpochVector is the pinned epoch vector (one entry per partition; 0 for
// an unservable one).
func (cv *ClusterView) EpochVector() []uint64 { return cv.epochs }

// Epoch is the scalar fold of the pinned epoch vector — what the
// X-Snapshot-Epoch header carries.
func (cv *ClusterView) Epoch() uint64 { return EpochScalar(cv.epochs) }

// owner returns the source serving v's owner partition, or a
// PartitionDownError when that partition is unservable.
func (cv *ClusterView) owner(v graph.VID) (view.Source, error) {
	o := cv.c.pmap.Owner(v)
	if s := cv.srcs[o]; s != nil {
		return s, nil
	}
	return nil, &PartitionDownError{Shard: o}
}

// ---- view.Source ----

// NumVertices is the max over partitions, captured at acquire time:
// vertex IDs are global, and every shard's store spans the same ID
// space (a shard simply holds no records for vertices it does not own).
func (cv *ClusterView) NumVertices() graph.VID { return cv.numV }

// Degree is the owner partition's stored out-record count, or v's
// in-record count summed over every servable partition.
func (cv *ClusterView) Degree(d graph.Direction, v graph.VID) int {
	if d == graph.Out {
		if s, err := cv.owner(v); err == nil {
			return s.Degree(d, v)
		}
		return 0
	}
	n := 0
	for _, s := range cv.srcs {
		if s != nil {
			n += s.Degree(d, v)
		}
	}
	return n
}

// Node reports the NUMA node of v's d-adjacency on its owner partition's
// machine (partitions are separate machines; the node index is only
// meaningful for binding queries on that shard). In a cluster the
// in-records scatter, so for In it is a placement hint, not a location.
func (cv *ClusterView) Node(d graph.Direction, v graph.VID) int {
	s, err := cv.owner(v)
	if err != nil {
		return xpsim.NodeUnbound
	}
	return s.Node(d, v)
}

// Visit streams v's d-neighbors that pass f. Out-reads go to v's owner
// partition — edges partition by source, so one shard holds all of them.
// In-reads run over every partition in shard order: an edge (u,v) is
// recorded with u's owner, so v's in-records scatter; concatenation
// preserves multi-edge multiplicity exactly like a single store, only
// the order differs. Each per-shard guard materializes under its own
// lock and calls back unlocked, so no lock is held across fn. An
// unservable or failing partition fails the read, named, after the
// servable ones have been streamed.
func (cv *ClusterView) Visit(ctx *xpsim.Ctx, d graph.Direction, v graph.VID, f prop.Filter, fn func(nbr uint32)) error {
	if d == graph.Out {
		s, err := cv.owner(v)
		if err != nil {
			return err
		}
		return cv.visitOut(ctx, s, v, f, fn)
	}
	var first error
	for i, s := range cv.srcs {
		var err error
		if s == nil {
			err = &PartitionDownError{Shard: i}
		} else if err = s.Visit(ctx, d, v, f, fn); err != nil {
			err = &ShardError{Shard: i, Err: err}
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// visitOut is the owner-partition out-visit. The label half of the
// filter pushes down to v's owner — edge labels live with the edge — but
// a neighbor's property column lives with the NEIGHBOR's owner, so the
// vertex predicate routes each surviving neighbor through the
// cluster-level property read. (In-reads need no routing: an in-neighbor
// u and its properties both live with u's owner.)
func (cv *ClusterView) visitOut(ctx *xpsim.Ctx, s view.Source, v graph.VID, f prop.Filter, fn func(nbr uint32)) error {
	if f.Op == prop.OpNone {
		return s.Visit(ctx, graph.Out, v, f, fn)
	}
	// A filtered visit fails closed on the owner's columns even when the
	// label half is empty and no neighbor property gets read.
	if _, _, err := s.VProp(v, f.Key); err != nil {
		return err
	}
	var verr error
	err := s.Visit(ctx, graph.Out, v, prop.Filter{Types: f.Types}, func(nbr uint32) {
		if verr != nil {
			return
		}
		keep := f.MatchVertex(func(key uint16) (int64, bool) {
			val, ok, perr := cv.VProp(graph.VID(nbr), key)
			if perr != nil {
				verr = perr
				return 0, false
			}
			return val, ok
		})
		if verr == nil && keep {
			fn(nbr)
		}
	})
	if err != nil {
		return err
	}
	return verr
}

// NbrsChecked is the media-checked read: the owner partition for Out,
// every partition appended in shard order for In, each decoding straight
// into dst under its shard's lock. An unservable partition or a media
// error fails the read, named, and returns dst as passed.
func (cv *ClusterView) NbrsChecked(ctx *xpsim.Ctx, d graph.Direction, v graph.VID, dst []uint32) ([]uint32, error) {
	if d == graph.Out {
		s, err := cv.owner(v)
		if err != nil {
			return dst, err
		}
		return s.NbrsChecked(ctx, d, v, dst)
	}
	out := dst
	for i, s := range cv.srcs {
		if s == nil {
			return dst, &PartitionDownError{Shard: i}
		}
		var err error
		if out, err = s.NbrsChecked(ctx, d, v, out); err != nil {
			return dst, &ShardError{Shard: i, Err: err}
		}
	}
	return out, nil
}

// Label reads edge (src, dst)'s label from src's owner partition, where
// the edge lives.
func (cv *ClusterView) Label(src, dst graph.VID) (uint16, error) {
	s, err := cv.owner(src)
	if err != nil {
		return 0, err
	}
	return s.Label(src, dst)
}

// Labels reads the label table from the first servable partition: label
// registration broadcasts (id, name) to every shard and its replicas, so
// any live partition's table is authoritative.
func (cv *ClusterView) Labels() []string {
	for _, s := range cv.srcs {
		if s != nil {
			return s.Labels()
		}
	}
	return []string{""}
}

// VProp reads vertex v's property from its owner partition — property
// writes route with the owner shard, so one shard holds the value.
func (cv *ClusterView) VProp(v graph.VID, key uint16) (int64, bool, error) {
	s, err := cv.owner(v)
	if err != nil {
		return 0, false, err
	}
	return s.VProp(v, key)
}
