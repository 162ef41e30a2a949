// Package view defines the one read surface of the graph stores in this
// repository (DESIGN.md §6.1, "Read surface"). Every query workload — the
// analytics engine, the HTTP server, the benchmark harness — is written
// against Source, so it runs identically over:
//
//   - core.Store: the live XPGraph view (latest ingested state),
//   - core.Snapshot: a consistent point-in-time view that stays stable
//     while ingestion continues (GraphOne-style snapshot metadata,
//     §II-B / §III-B of the paper),
//   - graphone.Store: the GraphOne comparison baseline,
//   - cluster.ClusterView: one pinned snapshot epoch per shard.
//
// Source is eight primitives that take a direction, so each store writes
// every read once. The direction-fixed conveniences callers spell
// (NbrsOut, VisitIn, OutDegree, ...) are written once too, on Graph.
package view

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

// Source is the read surface a graph store exposes — get_nebrs_{out,in}
// of the paper's Table I plus the property-graph reads. A vertex at or
// past NumVertices reads as empty: dst comes back untouched and the
// error is nil.
type Source interface {
	NumVertices() graph.VID
	// Degree is v's stored record count in direction d (deletion
	// tombstones included) — PageRank's divisor and the one-hop query's
	// non-zero filter.
	Degree(d graph.Direction, v graph.VID) int
	// Node reports the NUMA node owning v's d-adjacency
	// (xpsim.NodeUnbound when the store interleaves it).
	Node(d graph.Direction, v graph.VID) int
	// Visit streams v's resolved d-neighbors that pass f — the traversal
	// decoder every algorithm runs on. The filter is pushed down: a
	// pruned neighbor never reaches fn. The zero filter means "all" and
	// never touches the property columns; any other filter fails with
	// prop.ErrDamaged once the columns are damaged.
	Visit(ctx *xpsim.Ctx, d graph.Direction, v graph.VID, f prop.Filter, fn func(nbr uint32)) error
	// NbrsChecked appends v's resolved d-neighbors to dst through the
	// media-checked decoder: a read touching uncorrectable lines or a
	// checksum-mismatched block returns a typed error instead of wrong
	// neighbors. Stores without a media guard never fail.
	NbrsChecked(ctx *xpsim.Ctx, d graph.Direction, v graph.VID, dst []uint32) ([]uint32, error)
	// Label is the label of edge (src, dst), failing with
	// prop.ErrDamaged once the columns are damaged.
	Label(src, dst graph.VID) (uint16, error)
	// Labels is the label table: index = label id; entry 0 is "" (the
	// default label every untyped edge carries).
	Labels() []string
	// VProp reads vertex v's property key (checked like Label).
	VProp(v graph.VID, key uint16) (int64, bool, error)
}

// Guard wraps src so that every call runs under mu.RLock. It is the
// synchronization half of the snapshot-publication protocol: readers
// query a published core.Snapshot through a Guard while a writer mutates
// the underlying store under mu.Lock between read windows.
//
// The lock is taken per call, not per query run: a BFS over a guarded
// snapshot interleaves with ingestion batches at Visit granularity and
// still returns epoch-exact results, because a snapshot's answers do not
// change when later records are appended (the store is append-only per
// vertex; compaction is fenced by copy-on-invalidate).
func Guard(src Source, mu *sync.RWMutex) Source {
	return &guard{src: src, mu: mu}
}

type guard struct {
	src Source
	mu  *sync.RWMutex
}

func (g *guard) NumVertices() graph.VID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.src.NumVertices()
}

func (g *guard) Degree(d graph.Direction, v graph.VID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.src.Degree(d, v)
}

func (g *guard) Node(d graph.Direction, v graph.VID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.src.Node(d, v)
}

// visitBufs recycles the guard's materialization buffers: a traversal
// runs one guarded Visit per frontier vertex.
var visitBufs = sync.Pool{New: func() any { return new([]uint32) }}

// Visit materializes the neighbors under the lock and runs the callback
// after releasing it. Holding the lock across fn would deadlock when fn
// re-enters the guarded source (PageRank's in-visit callback reads
// out-degrees): a recursive RLock blocks as soon as a writer is queued
// between the two acquisitions.
func (g *guard) Visit(ctx *xpsim.Ctx, d graph.Direction, v graph.VID, f prop.Filter, fn func(nbr uint32)) error {
	buf := visitBufs.Get().(*[]uint32)
	*buf = (*buf)[:0]
	g.mu.RLock()
	err := g.src.Visit(ctx, d, v, f, func(nbr uint32) { *buf = append(*buf, nbr) })
	g.mu.RUnlock()
	if err == nil {
		for _, nbr := range *buf {
			fn(nbr)
		}
	}
	visitBufs.Put(buf)
	return err
}

// NbrsChecked decodes straight into dst under the lock; there is no
// callback to keep outside it.
func (g *guard) NbrsChecked(ctx *xpsim.Ctx, d graph.Direction, v graph.VID, dst []uint32) ([]uint32, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.src.NbrsChecked(ctx, d, v, dst)
}

func (g *guard) Label(src, dst graph.VID) (uint16, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.src.Label(src, dst)
}

func (g *guard) Labels() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.src.Labels()
}

func (g *guard) VProp(v graph.VID, key uint16) (int64, bool, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.src.VProp(v, key)
}

// Graph is a Source plus the direction-fixed conveniences, each written
// once over the primitives. The unchecked ones (NbrsOut/In, VisitOut/In)
// drop the Visit error: they are the algorithm surface, on which an
// unservable read — a down cluster partition — reads as empty (the HTTP
// layer health-gates whole-graph queries). Every Nbrs* helper appends to
// dst, preserving the caller's prefix.
type Graph struct{ Source }

// NbrsOut appends v's out-neighbors to dst.
func (g Graph) NbrsOut(ctx *xpsim.Ctx, v graph.VID, dst []uint32) []uint32 {
	return g.nbrs(ctx, graph.Out, v, dst)
}

// NbrsIn appends v's in-neighbors to dst.
func (g Graph) NbrsIn(ctx *xpsim.Ctx, v graph.VID, dst []uint32) []uint32 {
	return g.nbrs(ctx, graph.In, v, dst)
}

func (g Graph) nbrs(ctx *xpsim.Ctx, d graph.Direction, v graph.VID, dst []uint32) []uint32 {
	_ = g.Visit(ctx, d, v, prop.Filter{}, func(nbr uint32) { dst = append(dst, nbr) })
	return dst
}

// NbrsOutChecked appends v's out-neighbors to dst through the checked
// decoder.
func (g Graph) NbrsOutChecked(ctx *xpsim.Ctx, v graph.VID, dst []uint32) ([]uint32, error) {
	return g.NbrsChecked(ctx, graph.Out, v, dst)
}

// NbrsInChecked appends v's in-neighbors to dst through the checked
// decoder.
func (g Graph) NbrsInChecked(ctx *xpsim.Ctx, v graph.VID, dst []uint32) ([]uint32, error) {
	return g.NbrsChecked(ctx, graph.In, v, dst)
}

// VisitOut streams every out-neighbor of v.
func (g Graph) VisitOut(ctx *xpsim.Ctx, v graph.VID, fn func(nbr uint32)) {
	_ = g.Visit(ctx, graph.Out, v, prop.Filter{}, fn)
}

// VisitIn streams every in-neighbor of v.
func (g Graph) VisitIn(ctx *xpsim.Ctx, v graph.VID, fn func(nbr uint32)) {
	_ = g.Visit(ctx, graph.In, v, prop.Filter{}, fn)
}

// OutDegree is v's stored out-record count.
func (g Graph) OutDegree(v graph.VID) int { return g.Degree(graph.Out, v) }

// InDegree is v's stored in-record count.
func (g Graph) InDegree(v graph.VID) int { return g.Degree(graph.In, v) }

// OutNode is the NUMA node owning v's out-adjacency.
func (g Graph) OutNode(v graph.VID) int { return g.Node(graph.Out, v) }

// InNode is the NUMA node owning v's in-adjacency.
func (g Graph) InNode(v graph.VID) int { return g.Node(graph.In, v) }

// LabelID resolves a registered label name through Labels (false when
// unknown; the default label has no name to resolve).
func (g Graph) LabelID(name string) (uint16, bool) {
	for id, n := range g.Labels() {
		if id > 0 && n == name {
			return uint16(id), true
		}
	}
	return 0, false
}
