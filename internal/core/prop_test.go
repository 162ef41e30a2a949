package core

import (
	"slices"
	"testing"

	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

// TestMixedTypedUntypedRecovery pins the mixed-chain contract across a
// recovery round trip: edges ingested through the plain path read back
// with the default label, typed edges keep theirs, and vertex properties
// and the label table survive Recover.
func TestMixedTypedUntypedRecovery(t *testing.T) {
	m, h := testMachine()
	opts := Options{Name: "proprec", NumVertices: 64,
		LogCapacity: 1 << 10, ArchiveThreshold: 16, ArchiveThreads: 2, Props: true}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every write goes to the store and to the oracle.
	want := difftest.New()
	register := func(name string) uint16 {
		id, err := s.RegisterLabel(name)
		if err != nil || id != want.RegisterLabel(name) {
			t.Fatalf("RegisterLabel(%s) = %d, %v", name, id, err)
		}
		return id
	}
	typed := func(s *Store, edges []graph.Edge, labels []uint16) {
		if _, err := s.IngestTyped(edges, labels); err != nil {
			t.Fatal(err)
		}
		want.IngestTyped(edges, labels)
	}
	plain := func(s *Store, edges []graph.Edge) {
		if _, err := s.Ingest(edges); err != nil {
			t.Fatal(err)
		}
		want.Ingest(edges)
	}
	follows, blocks := register("follows"), register("blocks")

	// Typed chain 1→2→3 plus a blocks edge, interleaved with untyped
	// ingest through the plain path, plus a typed batch whose labels
	// slice is short (the tail pads with the default label).
	typed(s, []graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}, []uint16{follows, follows})
	plain(s, []graph.Edge{{Src: 1, Dst: 5}, {Src: 3, Dst: 6}})
	typed(s, []graph.Edge{{Src: 1, Dst: 4}, {Src: 1, Dst: 6}}, []uint16{blocks})
	props := []graph.PropSet{{V: 2, Key: 1, Val: 30}, {V: 4, Key: 1, Val: 7}}
	if err := s.SetProps(props); err != nil {
		t.Fatal(err)
	}
	want.SetProps(props)
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}

	aged := prop.Filter{Key: 1, Op: prop.OpGe, Val: 10}
	check := func(s *Store, when string) {
		t.Helper()
		if err := difftest.Check(s, want, difftest.Opts{}); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		// A real predicate never matches an unset property: only v2
		// (age 30) survives age≥10 among 1's neighbors; v4 has age 7.
		var got []uint32
		err := s.Visit(xpsim.NewCtx(0), Out, 1, aged, func(n uint32) { got = append(got, n) })
		if err != nil || !slices.Equal(got, []uint32{2}) {
			t.Fatalf("%s: age≥10 out(1) = %v, %v; want [2]", when, got, err)
		}
	}
	check(s, "live")

	s = nil
	rs, _, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	check(rs, "recovered")

	// The recovered store keeps growing: more typed and untyped edges
	// land with the same semantics through a second round trip.
	typed(rs, []graph.Edge{{Src: 5, Dst: 2}}, []uint16{follows})
	plain(rs, []graph.Edge{{Src: 5, Dst: 3}})
	if err := rs.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	rs = nil
	r2, _, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	check(r2, "recovered twice")
}

// TestIngestTypedWithoutProps pins the fail-closed write surface of a
// propless store.
func TestIngestTypedWithoutProps(t *testing.T) {
	m, h := testMachine()
	s, err := New(m, h, nil, Options{Name: "noprop", NumVertices: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestTyped([]graph.Edge{{Src: 1, Dst: 2}}, []uint16{1}); err != ErrNoProps {
		t.Fatalf("IngestTyped = %v, want ErrNoProps", err)
	}
	if err := s.SetProps([]graph.PropSet{{V: 1, Key: 1, Val: 1}}); err != ErrNoProps {
		t.Fatalf("SetProps = %v, want ErrNoProps", err)
	}
	if _, err := s.RegisterLabel("x"); err != ErrNoProps {
		t.Fatalf("RegisterLabel = %v, want ErrNoProps", err)
	}
	// Reads degrade gracefully: every edge default-labeled, no props.
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, s, difftest.FromEdges([]graph.Edge{{Src: 1, Dst: 2}}))
	if lbl, err := s.Label(1, 2); err != nil || lbl != graph.DefaultLabel {
		t.Fatalf("propless Label(1, 2) = %d, %v; want the default label", lbl, err)
	}
}
