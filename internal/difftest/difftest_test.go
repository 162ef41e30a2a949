package difftest

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/rng"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// fake serves a clone of an oracle, so a test can plant exactly one
// divergence by editing the clone; reads of vertex failV fail.
type fake struct {
	view.Source
	o     *Oracle
	failV graph.VID
}

func copyOf(o *Oracle, numV graph.VID) *fake {
	c := o.Clone()
	c.grow(numV - 1)
	return &fake{Source: c.Source(numV), o: c, failV: numV}
}

var errBoom = errors.New("boom")

func (f *fake) Visit(ctx *xpsim.Ctx, d graph.Direction, v graph.VID, flt prop.Filter, fn func(uint32)) error {
	if v == f.failV {
		return errBoom
	}
	return f.Source.Visit(ctx, d, v, flt, fn)
}

func (f *fake) NbrsChecked(ctx *xpsim.Ctx, d graph.Direction, v graph.VID, dst []uint32) ([]uint32, error) {
	if v == f.failV {
		return dst, errBoom
	}
	return f.Source.NbrsChecked(ctx, d, v, dst)
}

// reference is a small typed graph: multi-edges, a matched and an
// unmatched deletion, a relabel, and vertex properties.
func reference() *Oracle {
	o := New()
	follows, blocks := o.RegisterLabel("follows"), o.RegisterLabel("blocks")
	o.IngestTyped([]graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}, {Src: 4, Dst: 1}},
		[]uint16{follows, follows, blocks, follows})
	o.Ingest([]graph.Edge{graph.Del(1, 2), graph.Del(5, 6), {Src: 3, Dst: 4}})
	o.IngestTyped([]graph.Edge{{Src: 2, Dst: 3}}, []uint16{blocks})
	o.SetProps([]graph.PropSet{{V: 2, Key: 1, Val: 20}, {V: 3, Key: 1, Val: 30}, {V: 2, Key: 1, Val: 21}})
	return o
}

func TestCheckAcceptsExactCopy(t *testing.T) {
	o := reference()
	f := copyOf(o, 8)
	for _, opts := range []Opts{{}, {Checked: true}} {
		if err := Check(f, o, opts); err != nil {
			t.Fatalf("checked=%v: %v", opts.Checked, err)
		}
	}
	if err := Check(f, Read(f, 1), Opts{}); err != nil {
		t.Fatalf("against Read of itself: %v", err)
	}
}

// TestCheckCatchesPlantedDivergence plants one divergence per case; Check
// must name it, except where the predicate excludes the vertex.
func TestCheckCatchesPlantedDivergence(t *testing.T) {
	o := reference()
	only := func(v graph.VID) bool { return v != 3 }
	cases := []struct {
		name   string
		plant  func(f *fake)
		opts   Opts
		caught string // "" = must pass
	}{
		{"missing neighbor", func(f *fake) { f.o.nbrs[graph.In][3] = []uint32{1, 2} }, Opts{}, "missing [2]"},
		{"extra duplicate", func(f *fake) { f.o.nbrs[graph.Out][1] = append(f.o.nbrs[graph.Out][1], 3) }, Opts{}, "extra [3]"},
		{"wrong label", func(f *fake) { f.o.label[graph.Edge{Src: 1, Dst: 2}] = 2 }, Opts{}, "label"},
		{"wrong property", func(f *fake) { f.o.props[propKey{2, 1}] = 20 }, Opts{}, "VProp(2, 1)"},
		{"unset property", func(f *fake) { delete(f.o.props, propKey{3, 1}) }, Opts{}, "VProp(3, 1)"},
		{"label table", func(f *fake) { f.o.labels = []string{"", "blocks", "follows"} }, Opts{}, "label table"},
		{"degree above records", func(f *fake) { f.o.recs[graph.Out][5]++ }, Opts{}, "Degree"},
		{"degree below live", func(f *fake) { f.o.recs[graph.Out][1] = 1 }, Opts{}, "Degree"},
		{"lost vertex space", func(f *fake) { f.Source = f.o.Source(3) }, Opts{}, "past NumVertices"},
		{"checked read differs", func(f *fake) { f.o.nbrs[graph.Out][4] = nil }, Opts{Checked: true}, "missing [1]"},
		{"read error", func(f *fake) { f.failV = 2 }, Opts{}, "boom"},
		{"outside the predicate", func(f *fake) {
			f.o.nbrs[graph.Out][3] = nil
			f.o.props[propKey{3, 1}] = 99
		}, Opts{Only: only}, ""},
		{"tolerated read error", func(f *fake) { f.failV = 2 },
			Opts{OnErr: func(graph.Direction, graph.VID, error) error { return nil }}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := copyOf(o, 8)
			c.plant(f)
			err := Check(f, o, c.opts)
			switch {
			case c.caught == "" && err != nil:
				t.Fatalf("flagged a divergence outside the check: %v", err)
			case c.caught != "" && err == nil:
				t.Fatal("planted divergence not caught")
			case c.caught != "" && !strings.Contains(err.Error(), c.caught):
				t.Fatalf("error %q does not name %q", err, c.caught)
			}
			// The same divergence seen through Read: store vs store.
			if c.caught != "" && c.name != "read error" {
				if err := Check(f, Read(copyOf(o, 8), 1), c.opts); err == nil {
					t.Fatal("planted divergence not caught against a Read reference")
				}
			}
		})
	}
}

// TestOracleSemantics pins the store semantics the oracle reproduces.
func TestOracleSemantics(t *testing.T) {
	o := reference()
	// Of the two 1→2 inserts one survives the delete; the unmatched
	// delete 5→6 changes no neighbors but is a stored record.
	if got := o.Want(graph.Out, 1, prop.Filter{}); Diff(got, []uint32{2, 3}) != "" {
		t.Fatalf("out(1) = %v, want [2 3]", got)
	}
	if got := o.Want(graph.Out, 5, prop.Filter{}); len(got) != 0 {
		t.Fatalf("unmatched delete left out(5) = %v", got)
	}
	if d := o.Degree(graph.Out, 5); d != 1 {
		t.Fatalf("Degree(out, 5) = %d, want the tombstone record", d)
	}
	if d := o.Degree(graph.Out, 1); d != 4 {
		t.Fatalf("Degree(out, 1) = %d, want 4 records", d)
	}
	// Last write wins; a short labels slice pads with the default.
	if l := o.Label(2, 3); l != 2 {
		t.Fatalf("relabeled 2→3 = %d, want blocks", l)
	}
	if l := o.Label(4, 1); l != graph.DefaultLabel {
		t.Fatalf("padded 4→1 = %d, want the default label", l)
	}
	if val, ok := o.VProp(2, 1); !ok || val != 21 {
		t.Fatalf("VProp(2, 1) = %d, %v; want 21", val, ok)
	}
	if got := o.Want(graph.Out, 1, prop.Filter{Types: []uint16{1}}); !slices.Equal(got, []uint32{2}) {
		t.Fatalf("follows-filtered out(1) = %v, want [2]", got)
	}
	if got := o.Want(graph.In, 3, prop.Filter{Types: []uint16{2}}); Diff(got, []uint32{1, 2, 2}) != "" {
		t.Fatalf("blocks-filtered in(3) = %v, want [1 2 2]", got)
	}
	if got := o.Want(graph.Out, 1, prop.Filter{Key: 1, Op: prop.OpGe, Val: 25}); !slices.Equal(got, []uint32{3}) {
		t.Fatalf("prop-filtered out(1) = %v, want [3]", got)
	}
}

func TestSeeds(t *testing.T) {
	got := Seeds(7, 3)
	if len(got) != 3 || got[0] != rng.Draw(7) || got[2] != rng.Draw(9) || !slices.Equal(got[1:], Seeds(8, 2)) {
		t.Fatalf("sweep seeds = %v", got)
	}
}
