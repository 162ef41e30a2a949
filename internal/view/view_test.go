package view_test

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphone"
	"repro/internal/pmem"
	"repro/internal/prop"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// The conformance suite: every view.Source implementer is loaded with
// the same small graph — typed multi-edges, deletions, vertex
// properties — and must answer every read exactly like the oracle.

const nv = 24

const (
	follows uint16 = 1
	blocks  uint16 = 2
)

// workload is the graph every implementer is loaded with.
type workload struct {
	edges  []graph.Edge
	labels []uint16 // labels[i] types edges[i]; 0 is the default label
	dels   []graph.Edge
	props  []graph.PropSet
}

func newWorkload() workload {
	var w workload
	for i := 0; i < 60; i++ {
		w.edges = append(w.edges, graph.Edge{Src: uint32(i % 12), Dst: uint32((i*7 + 3) % nv)})
		w.labels = append(w.labels, uint16(i%3))
	}
	for i := 0; i < 3; i++ {
		w.edges = append(w.edges, graph.Edge{Src: 1, Dst: 2}, graph.Edge{Src: 2, Dst: 1})
		w.labels = append(w.labels, follows, blocks)
	}
	w.dels = []graph.Edge{graph.Del(1, 2), graph.Del(w.edges[5].Src, w.edges[5].Dst), graph.Del(7, 20)}
	for v := 0; v < nv; v += 2 {
		w.props = append(w.props, graph.PropSet{V: uint32(v), Key: 1, Val: int64(v * 5)})
	}
	return w
}

// oracle is the reference answer for one workload.
type oracle struct {
	nbrs  [2]map[graph.VID][]uint32
	recs  [2]map[graph.VID]int
	label map[graph.Edge]uint16
	prop  map[graph.VID]int64
	typed bool // false: every edge default-labeled, no properties
}

func (w workload) oracle(typed bool) *oracle {
	o := &oracle{label: map[graph.Edge]uint16{}, prop: map[graph.VID]int64{}, typed: typed}
	for d := range o.nbrs {
		o.nbrs[d] = map[graph.VID][]uint32{}
		o.recs[d] = map[graph.VID]int{}
	}
	for i, e := range w.edges {
		o.nbrs[graph.Out][e.Src] = append(o.nbrs[graph.Out][e.Src], e.Dst)
		o.nbrs[graph.In][e.Dst] = append(o.nbrs[graph.In][e.Dst], e.Src)
		o.recs[graph.Out][e.Src]++
		o.recs[graph.In][e.Dst]++
		o.label[e] = w.labels[i]
	}
	remove := func(s []uint32, x uint32) []uint32 {
		for i, y := range s {
			if y == x {
				return append(s[:i:i], s[i+1:]...)
			}
		}
		return s
	}
	for _, e := range w.dels {
		src, dst := e.Src, e.Target()
		o.nbrs[graph.Out][src] = remove(o.nbrs[graph.Out][src], dst)
		o.nbrs[graph.In][dst] = remove(o.nbrs[graph.In][dst], src)
		o.recs[graph.Out][src]++
		o.recs[graph.In][dst]++
	}
	for _, p := range w.props {
		o.prop[p.V] = p.Val
	}
	return o
}

func (o *oracle) labelOf(src, dst graph.VID) uint16 {
	if !o.typed {
		return graph.DefaultLabel
	}
	return o.label[graph.Edge{Src: src, Dst: dst}]
}

func (o *oracle) vprop(v graph.VID) (int64, bool) {
	if !o.typed {
		return 0, false
	}
	val, ok := o.prop[v]
	return val, ok
}

// want is v's d-neighbor multiset passing f.
func (o *oracle) want(d graph.Direction, v graph.VID, f prop.Filter) []uint32 {
	var out []uint32
	for _, n := range o.nbrs[d][v] {
		src, dst := v, n
		if d == graph.In {
			src, dst = n, v
		}
		get := func(key uint16) (int64, bool) { return o.vprop(n) }
		if f.MatchLabel(o.labelOf(src, dst)) && f.MatchVertex(get) {
			out = append(out, n)
		}
	}
	return out
}

var (
	dirs    = []graph.Direction{graph.Out, graph.In}
	filters = []prop.Filter{
		{},
		{Types: []uint16{follows}},
		{Key: 1, Op: prop.OpGe, Val: 10},
	}
)

func sameMultiset(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]uint32(nil), a...)
	y := append([]uint32(nil), b...)
	sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	sort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func visit(src view.Source, d graph.Direction, v graph.VID, f prop.Filter) ([]uint32, error) {
	var got []uint32
	err := src.Visit(xpsim.NewCtx(xpsim.NodeUnbound), d, v, f, func(n uint32) { got = append(got, n) })
	return got, err
}

// ---- implementers ----

// box is one property-enabled, media-guarded store on its own simulated
// machine, with the fault tracker that can damage its columns.
type box struct {
	st     *core.Store
	faults *xpsim.Faults
	opts   core.Options
}

func newBox(t *testing.T, name string) *box {
	t.Helper()
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	faults := m.TrackFaults()
	opts := core.Options{Name: name, NumVertices: nv, LogCapacity: 1 << 10,
		ArchiveThreshold: 1 << 4, ArchiveThreads: 2, MediaGuard: true, Props: true}
	st, err := core.New(m, pmem.NewHeap(m), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &box{st: st, faults: faults, opts: opts}
}

func registerLabels(t *testing.T, register func(string) (uint16, error)) {
	t.Helper()
	if id, err := register("follows"); err != nil || id != follows {
		t.Fatalf("register follows = %d, %v", id, err)
	}
	if id, err := register("blocks"); err != nil || id != blocks {
		t.Fatalf("register blocks = %d, %v", id, err)
	}
}

// load ingests w into the box's store and flushes it to PMEM.
func (b *box) load(t *testing.T, w workload) *core.Store {
	t.Helper()
	registerLabels(t, b.st.RegisterLabel)
	if _, err := b.st.IngestTyped(w.edges, w.labels); err != nil {
		t.Fatal(err)
	}
	if _, err := b.st.Ingest(w.dels); err != nil {
		t.Fatal(err)
	}
	if err := b.st.SetProps(w.props); err != nil {
		t.Fatal(err)
	}
	if err := b.st.BufferAllEdges(); err != nil {
		t.Fatal(err)
	}
	if err := b.st.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	return b.st
}

// damaged puts an uncorrectable error under the first property-column
// block and returns the store recovered from a crash image: a mid-log
// block with no DRAM mirror left, so the columns are damaged for good
// while the adjacency is intact.
func (b *box) damaged(t *testing.T) *core.Store {
	t.Helper()
	lines := b.st.PropMediaLines()
	if len(lines) < 3 {
		t.Fatalf("%s wrote only %d column blocks", b.opts.Name, len(lines))
	}
	b.faults.InjectUE(lines[0].Node, lines[0].Line)
	clone, err := b.st.Heap().CrashClone()
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := core.Recover(clone.Machine(), clone, nil, b.opts)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// loadedStore is a store holding w; damaged columns on request.
func loadedStore(t *testing.T, name string, w workload, damaged bool) *core.Store {
	b := newBox(t, name)
	b.load(t, w)
	if damaged {
		return b.damaged(t)
	}
	return b.st
}

// capture snapshots st, then keeps writing — new edges, a deletion, a
// vertex born past the snapshot's space — and optionally compacts every
// chain, so the snapshot must answer from its fenced frozen copies.
func capture(t *testing.T, st *core.Store, compact bool) *core.Snapshot {
	t.Helper()
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	snap := st.Snapshot(ctx)
	t.Cleanup(snap.Close)
	later := []graph.Edge{{Src: 1, Dst: 9}, {Src: 3, Dst: nv + 5}, graph.Del(2, 1), {Src: 9, Dst: 1}}
	if _, err := st.Ingest(later); err != nil {
		t.Fatal(err)
	}
	if err := st.BufferAllEdges(); err != nil {
		t.Fatal(err)
	}
	if err := st.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	if compact {
		if err := st.CompactAllAdjs(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return snap
}

// newCluster builds a cluster of fresh boxes, registers the labels and
// routes w through the synchronous write path. A damaged cluster is
// rebuilt over crash images of its flushed shard stores; damaged
// replicas start from a store whose columns are already damaged and
// receive the workload through log shipping.
func newCluster(t *testing.T, shards, replicas int, w workload, damaged bool) *cluster.Cluster {
	t.Helper()
	boxes := make([]*box, shards)
	stores := make([]*core.Store, shards)
	for i := range boxes {
		boxes[i] = newBox(t, fmt.Sprintf("shard%d", i))
		stores[i] = boxes[i].st
	}
	var cfg cluster.Config
	if replicas > 0 {
		cfg.Replicas = replicas
		cfg.ReplicaFactory = func(shardID, replica int) (*core.Store, error) {
			b := newBox(t, fmt.Sprintf("shard%d-replica%d", shardID, replica))
			if !damaged {
				return b.st, nil
			}
			registerLabels(t, b.st.RegisterLabel)
			if err := b.st.SetProps(w.props); err != nil {
				return nil, err
			}
			if err := b.st.FlushAllVbufs(); err != nil {
				return nil, err
			}
			return b.damaged(t), nil
		}
	}
	cl := start(t, stores, cfg)
	registerLabels(t, cl.RegisterLabel)
	if _, err := cl.IngestTyped(w.edges, w.labels, w.props); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Ingest(w.dels, true); err != nil {
		t.Fatal(err)
	}
	if replicas > 0 {
		waitReplicas(t, cl)
		return cl
	}
	if !damaged {
		return cl
	}
	if err := cl.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i, b := range boxes {
		stores[i] = b.damaged(t)
	}
	return start(t, stores, cluster.Config{})
}

func start(t *testing.T, stores []*core.Store, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// waitReplicas polls until every follower has published its leader's
// current epoch.
func waitReplicas(t *testing.T, cl *cluster.Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < cl.Shards(); i++ {
		sh := cl.Shard(i)
		for _, r := range sh.Replicas() {
			for r.Epoch() != sh.Epoch() {
				if err := r.Err(); err != nil {
					t.Fatalf("shard %d replica: %v", i, err)
				}
				if time.Now().After(deadline) {
					t.Fatalf("shard %d replica stuck at epoch %d, want %d", i, r.Epoch(), sh.Epoch())
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

func clusterView(t *testing.T, shards int, w workload, damaged bool) view.Source {
	cv := newCluster(t, shards, 0, w, damaged).AcquireView()
	t.Cleanup(cv.Release)
	return cv
}

func replicaView(t *testing.T, w workload, damaged bool) view.Source {
	cl := newCluster(t, 1, 1, w, damaged)
	g, _, release := cl.Shard(0).Replicas()[0].View()
	t.Cleanup(release)
	return g
}

func graphOne(t *testing.T, w workload) view.Source {
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	s, err := graphone.New(m, nil, nil, graphone.Options{Name: "graphone", NumVertices: nv,
		LogCapacity: 1 << 10, ArchiveThreshold: 1 << 4, ArchiveThreads: 2, AdjBytes: 1 << 20,
		Variant: graphone.VariantD})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]graph.Edge{w.edges, w.dels} {
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ArchiveAll(); err != nil {
		t.Fatal(err)
	}
	return s
}

// implementer builds one Source over w. typed reports a property layer;
// damaged asks for damaged property columns (typed implementers only).
type implementer struct {
	name  string
	typed bool
	build func(t *testing.T, w workload, damaged bool) view.Source
}

var implementers = []implementer{
	{"store", true, func(t *testing.T, w workload, damaged bool) view.Source {
		return loadedStore(t, "store", w, damaged)
	}},
	{"snapshot", true, func(t *testing.T, w workload, damaged bool) view.Source {
		return capture(t, loadedStore(t, "snap", w, damaged), false)
	}},
	{"snapshot-compacted", true, func(t *testing.T, w workload, damaged bool) view.Source {
		return capture(t, loadedStore(t, "snapc", w, damaged), true)
	}},
	{"graphone", false, func(t *testing.T, w workload, _ bool) view.Source {
		return graphOne(t, w)
	}},
	{"guard-snapshot", true, func(t *testing.T, w workload, damaged bool) view.Source {
		return view.Guard(capture(t, loadedStore(t, "guard", w, damaged), false), &sync.RWMutex{})
	}},
	{"cluster-1", true, func(t *testing.T, w workload, damaged bool) view.Source {
		return clusterView(t, 1, w, damaged)
	}},
	{"cluster-4", true, func(t *testing.T, w workload, damaged bool) view.Source {
		return clusterView(t, 4, w, damaged)
	}},
	{"replica", true, func(t *testing.T, w workload, damaged bool) view.Source {
		return replicaView(t, w, damaged)
	}},
}

// ---- the suite ----

func TestConformance(t *testing.T) {
	w := newWorkload()
	for _, im := range implementers {
		t.Run(im.name, func(t *testing.T) {
			src := im.build(t, w, false)
			o := w.oracle(im.typed)
			if n := src.NumVertices(); n != nv {
				t.Fatalf("NumVertices = %d, want %d", n, nv)
			}
			checkReads(t, src, o)
			checkBounds(t, src)
			checkProps(t, src, o)
		})
	}
}

// checkReads pins, per vertex and direction, the Visit multiset under
// every filter, the checked decoder, the degree, and the dst prefix of
// every appending read.
func checkReads(t *testing.T, src view.Source, o *oracle) {
	t.Helper()
	g := view.Graph{Source: src}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	prefix := []uint32{777, 888}
	for v := graph.VID(0); v < nv; v++ {
		for _, d := range dirs {
			for _, f := range filters {
				got, err := visit(src, d, v, f)
				if err != nil {
					t.Fatalf("Visit(%d, dir %d, %+v): %v", v, d, f, err)
				}
				if want := o.want(d, v, f); !sameMultiset(got, want) {
					t.Fatalf("Visit(%d, dir %d, %+v) = %v, want %v", v, d, f, got, want)
				}
			}
			all := o.want(d, v, prop.Filter{})
			got, err := src.NbrsChecked(ctx, d, v, nil)
			if err != nil || !sameMultiset(got, all) {
				t.Fatalf("NbrsChecked(%d, dir %d) = %v, %v; want %v", v, d, got, err, all)
			}
			if deg := src.Degree(d, v); deg != o.recs[d][v] {
				t.Fatalf("Degree(dir %d, %d) = %d, want %d", d, v, deg, o.recs[d][v])
			}

			reads := map[string]func(dst []uint32) ([]uint32, error){
				"NbrsChecked": func(dst []uint32) ([]uint32, error) { return src.NbrsChecked(ctx, d, v, dst) },
			}
			if d == graph.Out {
				reads["NbrsOut"] = func(dst []uint32) ([]uint32, error) { return g.NbrsOut(ctx, v, dst), nil }
				reads["NbrsOutChecked"] = func(dst []uint32) ([]uint32, error) { return g.NbrsOutChecked(ctx, v, dst) }
			} else {
				reads["NbrsIn"] = func(dst []uint32) ([]uint32, error) { return g.NbrsIn(ctx, v, dst), nil }
				reads["NbrsInChecked"] = func(dst []uint32) ([]uint32, error) { return g.NbrsInChecked(ctx, v, dst) }
			}
			for name, read := range reads {
				got, err := read(append([]uint32(nil), prefix...))
				if err != nil || len(got) < len(prefix) || got[0] != prefix[0] || got[1] != prefix[1] ||
					!sameMultiset(got[len(prefix):], all) {
					t.Fatalf("%s(%d) with prefix %v = %v, %v; want the prefix then %v", name, v, prefix, got, err, all)
				}
			}
		}
	}
}

// checkBounds pins the out-of-range contract: dst back untouched, nil
// error, no callback, zero degree.
func checkBounds(t *testing.T, src view.Source) {
	t.Helper()
	g := view.Graph{Source: src}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	for _, v := range []graph.VID{src.NumVertices(), nv + 5, 1 << 30} {
		for _, d := range dirs {
			dst := []uint32{42}
			got, err := src.NbrsChecked(ctx, d, v, dst)
			if err != nil || len(got) != 1 || &got[0] != &dst[0] {
				t.Fatalf("NbrsChecked(%d, dir %d) = %v, %v; want dst untouched", v, d, got, err)
			}
			if got := g.NbrsOut(ctx, v, dst); len(got) != 1 || &got[0] != &dst[0] {
				t.Fatalf("NbrsOut(%d) = %v, want dst untouched", v, got)
			}
			if err := src.Visit(ctx, d, v, filters[1], func(uint32) {
				t.Fatalf("Visit(%d, dir %d) called back", v, d)
			}); err != nil {
				t.Fatalf("Visit(%d, dir %d) = %v", v, d, err)
			}
			if deg := src.Degree(d, v); deg != 0 {
				t.Fatalf("Degree(dir %d, %d) = %d, want 0", d, v, deg)
			}
		}
	}
}

// checkProps pins the label table, LabelID, Label and VProp.
func checkProps(t *testing.T, src view.Source, o *oracle) {
	t.Helper()
	g := view.Graph{Source: src}
	want := []string{""}
	if o.typed {
		want = []string{"", "follows", "blocks"}
	}
	if got := src.Labels(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Labels = %q, want %q", got, want)
	}
	if id, ok := g.LabelID("blocks"); ok != o.typed || (ok && id != blocks) {
		t.Fatalf("LabelID(blocks) = %d, %v", id, ok)
	}
	if _, ok := g.LabelID(""); ok {
		t.Fatal(`LabelID("") resolved the default label`)
	}
	for e := range o.label {
		lbl, err := src.Label(e.Src, e.Dst)
		if err != nil || lbl != o.labelOf(e.Src, e.Dst) {
			t.Fatalf("Label(%d, %d) = %d, %v; want %d", e.Src, e.Dst, lbl, err, o.labelOf(e.Src, e.Dst))
		}
	}
	for v := graph.VID(0); v < nv; v++ {
		val, ok, err := src.VProp(v, 1)
		wv, wok := o.vprop(v)
		if err != nil || ok != wok || val != wv {
			t.Fatalf("VProp(%d) = %d, %v, %v; want %d, %v", v, val, ok, err, wv, wok)
		}
	}
}

// TestConformanceDamaged pins the fail-closed rules over damaged
// property columns: the zero-filter Visit never touches the columns and
// keeps serving, while Label and every filtered Visit fail with
// prop.ErrDamaged instead of reading lost labels as defaults. GraphOne
// has no property columns to damage.
func TestConformanceDamaged(t *testing.T) {
	w := newWorkload()
	o := w.oracle(true)
	for _, im := range implementers {
		if !im.typed {
			continue
		}
		t.Run(im.name, func(t *testing.T) {
			src := im.build(t, w, true)
			// Vertex 20 has no out-neighbors: a filtered read fails
			// closed even when no label or property would be looked up.
			for _, v := range []graph.VID{1, 2, 20} {
				for _, d := range dirs {
					got, err := visit(src, d, v, prop.Filter{})
					if want := o.want(d, v, prop.Filter{}); err != nil || !sameMultiset(got, want) {
						t.Fatalf("zero-filter Visit(%d, dir %d) = %v, %v; want %v", v, d, got, err, want)
					}
					for _, f := range filters[1:] {
						if _, err := visit(src, d, v, f); !errors.Is(err, prop.ErrDamaged) {
							t.Fatalf("Visit(%d, dir %d, %+v) = %v, want prop.ErrDamaged", v, d, f, err)
						}
					}
				}
			}
			if _, err := src.Label(1, 2); !errors.Is(err, prop.ErrDamaged) {
				t.Fatalf("Label = %v, want prop.ErrDamaged", err)
			}
		})
	}
}
