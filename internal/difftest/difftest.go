// Package difftest is the one reference oracle of this repository's
// differential harnesses (DESIGN.md §7.1): the crash, media-scrub and
// chaos verifiers, the view conformance suite and the store tests all
// check a graph store against it.
//
// An Oracle is built from an ordered stream of plain edges, typed edges,
// deletions and property writes with the stores' semantics: a delete
// cancels one prior matching insert and an unmatched delete is a no-op
// (both still count as stored records); edge labels and vertex
// properties are last-write-wins. Read turns a second view.Source into
// an Oracle, so store-vs-store differentials (cluster vs single store,
// follower vs leader) use the same Check as store-vs-stream ones.
//
// The package imports no store implementation, so the stores' own
// in-package tests can use it.
package difftest

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// Oracle is the reference answer for one graph.
type Oracle struct {
	nbrs   [2][][]uint32 // direction → vertex → live neighbor multiset
	recs   [2][]int      // direction → vertex → records stored, tombstones included
	labels []string      // the label table; entry 0 is the default label
	label  map[graph.Edge]uint16
	props  map[propKey]int64
	keys   []uint16  // property keys Check compares, ascending
	numV   graph.VID // Read's NumVertices; 0 for a stream oracle
	err    error     // the first Read failure
}

type propKey struct {
	v   graph.VID
	key uint16
}

// New returns the oracle of the empty graph.
func New() *Oracle {
	return &Oracle{labels: []string{""}, label: map[graph.Edge]uint16{}, props: map[propKey]int64{}}
}

// Clone is a copy of o that later writes to o leave unchanged.
func (o *Oracle) Clone() *Oracle {
	c := *o
	for d := range c.nbrs {
		c.nbrs[d] = make([][]uint32, len(o.nbrs[d]))
		for v, n := range o.nbrs[d] {
			c.nbrs[d][v] = slices.Clone(n)
		}
		c.recs[d] = slices.Clone(o.recs[d])
	}
	c.labels = slices.Clone(o.labels)
	c.label = maps.Clone(o.label)
	c.props = maps.Clone(o.props)
	c.keys = slices.Clone(o.keys)
	return &c
}

// FromEdges is the oracle of one plain edge stream.
func FromEdges(edges []graph.Edge) *Oracle {
	o := New()
	o.Ingest(edges)
	return o
}

// Stream is the deterministic workload of the harnesses: an evolving
// stream with deletions when delRatio > 0, else RMAT inserts.
func Stream(scale int, edges int64, delRatio float64, seed uint64) []graph.Edge {
	if delRatio > 0 {
		return gen.Evolving(scale, edges, delRatio, seed)
	}
	return gen.RMAT(scale, edges, seed)
}

// Ingest applies plain edges and deletions; labels are untouched.
func (o *Oracle) Ingest(edges []graph.Edge) {
	for _, e := range edges {
		src, dst := e.Src, e.Target()
		o.grow(max(src, dst))
		o.recs[graph.Out][src]++
		o.recs[graph.In][dst]++
		if e.IsDelete() {
			o.nbrs[graph.Out][src] = removeLast(o.nbrs[graph.Out][src], dst)
			o.nbrs[graph.In][dst] = removeLast(o.nbrs[graph.In][dst], src)
			continue
		}
		o.nbrs[graph.Out][src] = append(o.nbrs[graph.Out][src], dst)
		o.nbrs[graph.In][dst] = append(o.nbrs[graph.In][dst], src)
	}
}

// IngestTyped applies edges with their labels; labels shorter than
// edges pads with the default label, which relabels an edge typed
// before.
func (o *Oracle) IngestTyped(edges []graph.Edge, labels []uint16) {
	o.Ingest(edges)
	for i, e := range edges {
		if e.IsDelete() {
			continue
		}
		var lbl uint16
		if i < len(labels) {
			lbl = labels[i]
		}
		if lbl == graph.DefaultLabel {
			delete(o.label, e)
		} else {
			o.label[e] = lbl
		}
	}
}

// SetProps applies vertex-property writes.
func (o *Oracle) SetProps(sets []graph.PropSet) {
	for _, p := range sets {
		o.props[propKey{p.V, p.Key}] = p.Val
		if i, found := slices.BinarySearch(o.keys, p.Key); !found {
			o.keys = slices.Insert(o.keys, i, p.Key)
		}
	}
}

// RegisterLabel appends name to the label table (or finds it) and
// returns its id, like the stores do.
func (o *Oracle) RegisterLabel(name string) uint16 {
	if i := slices.Index(o.labels, name); i > 0 {
		return uint16(i)
	}
	o.labels = append(o.labels, name)
	return uint16(len(o.labels) - 1)
}

func (o *Oracle) grow(v graph.VID) {
	for d := range o.nbrs {
		for graph.VID(len(o.nbrs[d])) <= v {
			o.nbrs[d] = append(o.nbrs[d], nil)
			o.recs[d] = append(o.recs[d], 0)
		}
	}
}

// removeLast drops the last occurrence of x from s (s unchanged when x
// is absent: an unmatched delete is a no-op).
func removeLast(s []uint32, x uint32) []uint32 {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == x {
			return slices.Delete(s, i, i+1)
		}
	}
	return s
}

// Want is v's d-neighbor multiset passing f. The zero filter returns
// the oracle's own slice: do not modify it.
func (o *Oracle) Want(d graph.Direction, v graph.VID, f prop.Filter) []uint32 {
	if int(v) >= len(o.nbrs[d]) {
		return nil
	}
	all := o.nbrs[d][v]
	if f.Empty() {
		return all
	}
	var out []uint32
	for _, n := range all {
		src, dst := v, n
		if d == graph.In {
			src, dst = n, v
		}
		get := func(key uint16) (int64, bool) { return o.VProp(n, key) }
		if f.MatchLabel(o.Label(src, dst)) && f.MatchVertex(get) {
			out = append(out, n)
		}
	}
	return out
}

// Degree is the number of records stored for v in direction d,
// deletion tombstones included.
func (o *Oracle) Degree(d graph.Direction, v graph.VID) int {
	if int(v) >= len(o.recs[d]) {
		return 0
	}
	return o.recs[d][v]
}

// Label is the label of edge (src, dst).
func (o *Oracle) Label(src, dst graph.VID) uint16 {
	return o.label[graph.Edge{Src: src, Dst: dst}]
}

// VProp is vertex v's property key.
func (o *Oracle) VProp(v graph.VID, key uint16) (int64, bool) {
	val, ok := o.props[propKey{v, key}]
	return val, ok
}

// Labels is the label table.
func (o *Oracle) Labels() []string { return o.labels }

// Err is the first read failure of an oracle built by Read.
func (o *Oracle) Err() error { return o.err }

// Read captures src as an oracle: every vertex's neighbors and record
// counts in both directions, the labels of its out-edges, the label
// table, and the vertex properties under keys. A failed read is kept in
// Err and reported by the Check that uses the oracle.
func Read(src view.Source, keys ...uint16) *Oracle {
	o := New()
	o.numV = src.NumVertices()
	o.labels = slices.Clone(src.Labels())
	o.keys = slices.Sorted(slices.Values(keys))
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	if o.numV > 0 {
		o.grow(o.numV - 1)
	}
	for v := graph.VID(0); v < o.numV; v++ {
		for _, d := range dirs {
			o.recs[d][v] = src.Degree(d, v)
			o.nbrs[d][v], o.err = visit(ctx, src, d, v, prop.Filter{})
			if o.err != nil {
				o.err = fmt.Errorf("vertex %d %s: %w", v, dirName[d], o.err)
				return o
			}
		}
		for _, n := range o.nbrs[graph.Out][v] {
			lbl, err := src.Label(v, n)
			if err != nil {
				o.err = fmt.Errorf("label %d→%d: %w", v, n, err)
				return o
			}
			if lbl != graph.DefaultLabel {
				o.label[graph.Edge{Src: v, Dst: n}] = lbl
			}
		}
		for _, k := range o.keys {
			val, ok, err := src.VProp(v, k)
			if err != nil {
				o.err = fmt.Errorf("VProp(%d, %d): %w", v, k, err)
				return o
			}
			if ok {
				o.props[propKey{v, k}] = val
			}
		}
	}
	return o
}

// Source serves the oracle as a view.Source over numV vertices: the
// reference graph for code written against view.Source, and the store
// the self-test plants divergences in.
func (o *Oracle) Source(numV graph.VID) view.Source { return source{o, numV} }

type source struct {
	o    *Oracle
	numV graph.VID
}

func (s source) NumVertices() graph.VID              { return s.numV }
func (s source) Node(graph.Direction, graph.VID) int { return xpsim.NodeUnbound }
func (s source) Labels() []string                    { return s.o.labels }

func (s source) Degree(d graph.Direction, v graph.VID) int {
	if v >= s.numV {
		return 0
	}
	return s.o.Degree(d, v)
}

func (s source) Visit(_ *xpsim.Ctx, d graph.Direction, v graph.VID, f prop.Filter, fn func(nbr uint32)) error {
	if v < s.numV {
		for _, n := range s.o.Want(d, v, f) {
			fn(n)
		}
	}
	return nil
}

func (s source) NbrsChecked(_ *xpsim.Ctx, d graph.Direction, v graph.VID, dst []uint32) ([]uint32, error) {
	if v >= s.numV {
		return dst, nil
	}
	return append(dst, s.o.Want(d, v, prop.Filter{})...), nil
}

func (s source) Label(src, dst graph.VID) (uint16, error) { return s.o.Label(src, dst), nil }

func (s source) VProp(v graph.VID, key uint16) (int64, bool, error) {
	val, ok := s.o.VProp(v, key)
	return val, ok, nil
}

var (
	dirs    = []graph.Direction{graph.Out, graph.In}
	dirName = [2]string{graph.Out: "out", graph.In: "in"}
)

func visit(ctx *xpsim.Ctx, src view.Source, d graph.Direction, v graph.VID, f prop.Filter) ([]uint32, error) {
	var got []uint32
	err := src.Visit(ctx, d, v, f, func(n uint32) { got = append(got, n) })
	return got, err
}

// Opts selects how Check reads the store under test.
type Opts struct {
	// Checked reads neighbors through NbrsChecked, the media-checked
	// decoder, instead of the zero-filter Visit.
	Checked bool
	// OnErr decides a failed neighbor read: nil tolerates it (the rest
	// of that vertex and direction is skipped), an error fails Check.
	// Nil OnErr fails Check on every read error. Label and property
	// read errors always fail.
	OnErr func(d graph.Direction, v graph.VID, err error) error
	// Only restricts Check to the vertices it accepts (nil: all).
	Only func(v graph.VID) bool
}

// Check compares src against want and returns the first divergence:
//
//   - the label table, and NumVertices when want came from Read;
//   - per vertex and direction, the neighbor multiset, the neighbor
//     multiset under each registered label's type filter, and the
//     record count, which lies between the live neighbor count and
//     want's (compaction and snapshot resyncs fold tombstones);
//   - per vertex, the label of every out-edge and the property under
//     every key want holds;
//   - no neighbors in want for a vertex past src's NumVertices.
func Check(src view.Source, want *Oracle, opts Opts) error {
	if want.err != nil {
		return fmt.Errorf("reading the reference: %w", want.err)
	}
	numV := src.NumVertices()
	if want.numV != 0 && numV != want.numV {
		return fmt.Errorf("NumVertices = %d, want %d", numV, want.numV)
	}
	if got := src.Labels(); !slices.Equal(got, want.labels) {
		return fmt.Errorf("label table %q, want %q", got, want.labels)
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	for v := graph.VID(0); v < max(numV, graph.VID(len(want.nbrs[graph.Out]))); v++ {
		if opts.Only != nil && !opts.Only(v) {
			continue
		}
		for _, d := range dirs {
			if err := checkNbrs(ctx, src, want, opts, d, v); err != nil {
				return err
			}
		}
		if v < numV {
			if err := checkProps(src, want, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkNbrs compares v's d-neighbors, unfiltered and under each
// registered label's type filter, then its record count.
func checkNbrs(ctx *xpsim.Ctx, src view.Source, want *Oracle, opts Opts, d graph.Direction, v graph.VID) error {
	all := want.Want(d, v, prop.Filter{})
	if v >= src.NumVertices() {
		if len(all) > 0 {
			return fmt.Errorf("vertex %d %s: want %d neighbors past NumVertices %d", v, dirName[d], len(all), src.NumVertices())
		}
		return nil
	}
	for lbl := range want.labels {
		var f prop.Filter
		if lbl > 0 {
			f.Types = []uint16{uint16(lbl)}
		}
		var got []uint32
		var err error
		if opts.Checked && lbl == 0 {
			got, err = src.NbrsChecked(ctx, d, v, nil)
		} else {
			got, err = visit(ctx, src, d, v, f)
		}
		if err != nil && opts.OnErr != nil {
			return opts.OnErr(d, v, err)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", where(d, v, lbl), err)
		}
		if diff := Diff(got, want.Want(d, v, f)); diff != "" {
			return fmt.Errorf("%s: %s", where(d, v, lbl), diff)
		}
	}
	if deg := src.Degree(d, v); deg < len(all) || deg > want.Degree(d, v) {
		return fmt.Errorf("vertex %d %s: Degree = %d, want %d live neighbors to %d records",
			v, dirName[d], deg, len(all), want.Degree(d, v))
	}
	return nil
}

// where names a neighbor read in a divergence: label 0 is unfiltered.
func where(d graph.Direction, v graph.VID, lbl int) string {
	if lbl == 0 {
		return fmt.Sprintf("vertex %d %s", v, dirName[d])
	}
	return fmt.Sprintf("vertex %d %s (label %d filter)", v, dirName[d], lbl)
}

// checkProps compares v's out-edge labels and vertex properties.
func checkProps(src view.Source, want *Oracle, v graph.VID) error {
	for _, n := range want.Want(graph.Out, v, prop.Filter{}) {
		got, err := src.Label(v, n)
		if err != nil {
			return fmt.Errorf("label %d→%d: %w", v, n, err)
		}
		if w := want.Label(v, n); got != w {
			return fmt.Errorf("label %d→%d = %d, want %d", v, n, got, w)
		}
	}
	for _, k := range want.keys {
		val, ok, err := src.VProp(v, k)
		if err != nil {
			return fmt.Errorf("VProp(%d, %d): %w", v, k, err)
		}
		if wv, wok := want.VProp(v, k); val != wv || ok != wok {
			return fmt.Errorf("VProp(%d, %d) = %d,%v, want %d,%v", v, k, val, ok, wv, wok)
		}
	}
	return nil
}

// Diff compares two neighbor lists as multisets: "" when equal, else
// the counts and the neighbors missing from and extra in got.
func Diff(got, want []uint32) string {
	g, w := slices.Clone(got), slices.Clone(want)
	slices.Sort(g)
	slices.Sort(w)
	if slices.Equal(g, w) {
		return ""
	}
	var missing, extra []uint32
	for len(g) > 0 || len(w) > 0 {
		switch {
		case len(g) == 0 || (len(w) > 0 && w[0] < g[0]):
			missing, w = append(missing, w[0]), w[1:]
		case len(w) == 0 || g[0] < w[0]:
			extra, g = append(extra, g[0]), g[1:]
		default:
			g, w = g[1:], w[1:]
		}
	}
	return fmt.Sprintf("got %d neighbors, want %d: missing %v, extra %v", len(got), len(want), missing, extra)
}
