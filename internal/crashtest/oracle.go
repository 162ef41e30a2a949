package crashtest

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/xpsim"
)

// oracle is the deterministic in-memory reference: plain adjacency
// multisets built from an edge stream with the store's deletion
// semantics (a delete cancels one matching prior insert; an unmatched
// delete is a no-op).
type oracle struct {
	out, in map[graph.VID][]uint32
}

func buildOracle(edges []graph.Edge) *oracle {
	o := &oracle{out: map[graph.VID][]uint32{}, in: map[graph.VID][]uint32{}}
	for _, e := range edges {
		if e.IsDelete() {
			o.out[e.Src] = removeOne(o.out[e.Src], e.Target())
			o.in[e.Target()] = removeOne(o.in[e.Target()], e.Src)
			continue
		}
		o.out[e.Src] = append(o.out[e.Src], e.Dst)
		o.in[e.Dst] = append(o.in[e.Dst], e.Src)
	}
	return o
}

func removeOne(s []uint32, v uint32) []uint32 {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func sortedU32(u []uint32) []uint32 {
	v := append([]uint32(nil), u...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

func diffMultiset(got, want []uint32) string {
	g, w := sortedU32(got), sortedU32(want)
	if len(g) == len(w) {
		same := true
		for i := range g {
			if g[i] != w[i] {
				same = false
				break
			}
		}
		if same {
			return ""
		}
	}
	return fmt.Sprintf("got %d nbrs %v, want %d nbrs %v", len(g), g, len(w), w)
}

// verify checks the recovered store edge-for-edge against the oracle
// over the durable prefix edges[:durable], then the log cursor
// invariants, then the store's own structural self-check. Any lost
// flushed edge, any duplicate introduced by replay, and any cursor
// regression surfaces here.
func verify(rs *core.Store, edges []graph.Edge, durable int64) error {
	if durable < 0 || durable > int64(len(edges)) {
		return fmt.Errorf("recovered head %d outside ingested stream [0,%d]", durable, len(edges))
	}
	prefix := edges[:durable]
	o := buildOracle(prefix)

	l := rs.Log()
	if l.Flushed() > l.Buffered() || l.Buffered() > l.Head() {
		return fmt.Errorf("cursor order violated: flushed=%d buffered=%d head=%d", l.Flushed(), l.Buffered(), l.Head())
	}
	if l.Buffered() != l.Head() {
		return fmt.Errorf("recovery left unbuffered window: buffered=%d head=%d", l.Buffered(), l.Head())
	}
	if l.Head()-l.Flushed() > l.Cap() {
		return fmt.Errorf("replay window %d exceeds log capacity %d", l.Head()-l.Flushed(), l.Cap())
	}

	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	numV := rs.NumVertices()
	for v := graph.VID(0); v < numV; v++ {
		if d := diffMultiset(rs.Nbrs(ctx, core.Out, v, nil), o.out[v]); d != "" {
			return fmt.Errorf("vertex %d out (durable=%d): %s", v, durable, d)
		}
		if d := diffMultiset(rs.Nbrs(ctx, core.In, v, nil), o.in[v]); d != "" {
			return fmt.Errorf("vertex %d in (durable=%d): %s", v, durable, d)
		}
	}

	if _, err := rs.Verify(ctx); err != nil {
		return fmt.Errorf("structural check: %w", err)
	}
	return nil
}
