package core

import (
	"repro/internal/graph"
	"repro/internal/mempool"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

// The graph querying interfaces of Table I. All return neighbor IDs with
// deletion tombstones already resolved unless stated otherwise.

// Nbrs returns the merged neighbor view of v in direction d: PMEM
// adjacency blocks plus the DRAM vertex buffer — get_nebrs_{out/in}(vid).
func (s *Store) Nbrs(ctx *xpsim.Ctx, d Direction, v graph.VID, dst []uint32) []uint32 {
	if v >= s.NumVertices() {
		return dst
	}
	start := len(dst)
	dst = s.groups[d][s.partOf(v)].adj.Neighbors(ctx, v, dst)
	dst = s.nbrsBufRaw(ctx, d, v, dst)
	return resolveInPlace(dst, start)
}

// Visit streams v's merged neighbor view (PMEM blocks then the DRAM
// vertex buffer) that passes f — the view.Source traversal decoder. The
// zero filter streams without allocating and never touches the property
// columns; vertices that ever received a deletion tombstone fall back to
// the materializing path so the resolved view stays correct. Any other
// filter runs through visitTyped (prop.go).
func (s *Store) Visit(ctx *xpsim.Ctx, d Direction, v graph.VID, f prop.Filter, fn func(nbr uint32)) error {
	if !f.Empty() {
		return visitTyped(ctx, d, v, f, fn, s.props, s.Nbrs)
	}
	if v >= s.NumVertices() {
		return nil
	}
	_, tombstoned := s.delVerts[d][v]
	if tombstoned || s.delsUnknown {
		for _, nbr := range s.Nbrs(ctx, d, v, nil) {
			fn(nbr)
		}
		return nil
	}
	s.groups[d][s.partOf(v)].adj.Visit(ctx, v, fn)
	h := s.vbH[d][v]
	if h != mempool.None {
		s.bufs.Visit(ctx, h, int(s.vbC[d][v]), fn)
	}
	return nil
}

// NbrsFlush returns only the PMEM-resident neighbors —
// get_nebrs_flush_{out/in}(vid).
func (s *Store) NbrsFlush(ctx *xpsim.Ctx, d Direction, v graph.VID, dst []uint32) []uint32 {
	if v >= s.NumVertices() {
		return dst
	}
	start := len(dst)
	dst = s.groups[d][s.partOf(v)].adj.Neighbors(ctx, v, dst)
	return resolveInPlace(dst, start)
}

// NbrsBuf returns only the DRAM-buffered neighbors —
// get_nebrs_buf_{out/in}(vid).
func (s *Store) NbrsBuf(ctx *xpsim.Ctx, d Direction, v graph.VID, dst []uint32) []uint32 {
	if v >= s.NumVertices() {
		return dst
	}
	start := len(dst)
	dst = s.nbrsBufRaw(ctx, d, v, dst)
	return resolveInPlace(dst, start)
}

func (s *Store) nbrsBufRaw(ctx *xpsim.Ctx, d Direction, v graph.VID, dst []uint32) []uint32 {
	h := s.vbH[d][v]
	if h == mempool.None {
		return dst
	}
	return s.bufs.Neighbors(ctx, h, int(s.vbC[d][v]), dst)
}

// NbrsLog scans the unbuffered window of the circular edge log for v's
// neighbors — get_nebrs_log_{out/in}(vid). This is an O(window) scan; it
// exists for completeness of the phase-separated view interfaces.
func (s *Store) NbrsLog(ctx *xpsim.Ctx, d Direction, v graph.VID, dst []uint32) []uint32 {
	edges := s.log.Read(ctx, s.log.Buffered(), s.log.Head(), nil)
	for _, e := range edges {
		if Direction(d) == Out && e.Src == v {
			dst = append(dst, e.Dst)
		} else if Direction(d) == In && e.Target() == v {
			dst = append(dst, e.Src|(e.Dst&graph.DelFlag))
		}
	}
	return dst
}

// LoggedEdges returns the edges still waiting in the log window —
// get_logged_edges() of Table I.
func (s *Store) LoggedEdges(ctx *xpsim.Ctx) []graph.Edge {
	return s.log.Read(ctx, s.log.Buffered(), s.log.Head(), nil)
}

// Degree reports the number of live records known for v (records minus
// nothing — tombstones still count as records; use Nbrs for the resolved
// view). It is the cheap DRAM-side degree GraphOne also maintains.
func (s *Store) Degree(d Direction, v graph.VID) int {
	if v >= s.NumVertices() {
		return 0
	}
	return int(s.records[d][v])
}

// resolveInPlace removes deletion tombstones (and one matching neighbor
// each) from dst[start:], returning the shortened slice.
func resolveInPlace(dst []uint32, start int) []uint32 {
	recs := dst[start:]
	var dels map[uint32]int
	for _, r := range recs {
		if r&graph.DelFlag != 0 {
			if dels == nil {
				dels = make(map[uint32]int)
			}
			dels[r&^graph.DelFlag]++
		}
	}
	if dels == nil {
		return dst
	}
	// Forward compaction is alias-safe (the write index never passes the
	// read index); which matching insert a deletion cancels is
	// irrelevant under multiset semantics.
	out := recs[:0]
	for _, r := range recs {
		if r&graph.DelFlag != 0 {
			continue
		}
		if n := dels[r]; n > 0 {
			dels[r] = n - 1
			continue
		}
		out = append(out, r)
	}
	return dst[:start+len(out)]
}

// Edges streams every live edge (tombstones resolved) to fn in vertex
// order — the export path for backups and migrations. It reflects the
// store's current adjacency view; edges still waiting in the log window
// are included only once buffered (call BufferAllEdges first for an exact
// cut).
func (s *Store) Edges(ctx *xpsim.Ctx, fn func(graph.Edge)) {
	var scratch []uint32
	for v := graph.VID(0); v < s.NumVertices(); v++ {
		if s.records[Out][v] == 0 {
			continue
		}
		scratch = s.Nbrs(ctx, Out, v, scratch[:0])
		for _, dst := range scratch {
			fn(graph.Edge{Src: v, Dst: dst})
		}
	}
}
