package gen

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(10, 1000, 7)
	b := RMAT(10, 1000, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RMAT is not deterministic for a fixed seed")
		}
	}
	c := RMAT(10, 1000, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRMATInRange(t *testing.T) {
	f := func(seed uint64) bool {
		for _, e := range RMAT(8, 500, seed) {
			if e.Src >= 256 || e.Dst >= 256 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRMATPowerLawSkew(t *testing.T) {
	// §III-C: vertices with degree 1-2 should be the biggest non-zero
	// bucket, and some vertices should be very hot.
	edges := RMAT(16, 1<<20, 99)
	h := DegreeHistogram(edges, 1<<16)
	nonZero := h[1] + h[2] + h[3] + h[4]
	if h[1]*100 < nonZero*30 {
		t.Errorf("degree 1-2 bucket = %d of %d non-zero vertices; want power-law skew (>30%%)", h[1], nonZero)
	}
	if h[4] == 0 {
		t.Error("no vertex with degree >= 64; RMAT should produce hubs")
	}
}

func TestUniformInRange(t *testing.T) {
	for _, e := range Uniform(100, 1000, 3) {
		if e.Src >= 100 || e.Dst >= 100 {
			t.Fatalf("edge %v out of range", e)
		}
	}
}

func TestCatalog(t *testing.T) {
	cat := Catalog()
	if len(cat) != 7 {
		t.Fatalf("catalog has %d datasets, want 7 (Table II)", len(cat))
	}
	seen := map[string]bool{}
	for _, d := range cat {
		if seen[d.Name] {
			t.Fatalf("duplicate dataset %s", d.Name)
		}
		seen[d.Name] = true
		if d.Edges <= 0 || d.Scale <= 0 {
			t.Fatalf("dataset %s has bad geometry", d.Name)
		}
	}
	// Relative ordering by edge count matches Table II.
	if cat[0].Edges >= cat[1].Edges || cat[3].Edges <= cat[2].Edges {
		t.Error("catalog edge counts out of order vs Table II")
	}
	if _, err := ByName("FS"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName should reject unknown names")
	}
}

func TestEdgeFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.bin")
	want := RMAT(8, 321, 5)
	want = append(want, graph.Del(1, 2))
	if err := WriteEdgeFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestEncodeDecodeEdges(t *testing.T) {
	want := RMAT(6, 100, 11)
	got, err := graph.DecodeEdges(graph.EncodeEdges(want))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("binary edge list round trip failed")
		}
	}
	if _, err := graph.DecodeEdges(make([]byte, 7)); err == nil {
		t.Fatal("DecodeEdges should reject ragged input")
	}
}

func TestEvolvingStream(t *testing.T) {
	updates := Evolving(8, 5000, 0.2, 9)
	if len(updates) != 5000 {
		t.Fatalf("got %d updates", len(updates))
	}
	// Every deletion must target an edge that was added earlier and not
	// yet deleted.
	live := map[graph.Edge]int{}
	dels := 0
	for _, e := range updates {
		if e.IsDelete() {
			dels++
			k := graph.Edge{Src: e.Src, Dst: e.Target()}
			if live[k] == 0 {
				t.Fatalf("deletion of never-added edge %v", e)
			}
			live[k]--
			continue
		}
		live[e]++
	}
	if dels == 0 || dels > 2000 {
		t.Fatalf("deletions = %d, want roughly 20%% of 5000", dels)
	}
	// Deterministic.
	again := Evolving(8, 5000, 0.2, 9)
	for i := range updates {
		if updates[i] != again[i] {
			t.Fatal("Evolving is not deterministic")
		}
	}
}

// TestGeneratorsGolden pins the generators' output for fixed seeds, so
// every catalog dataset stays the stream it was.
func TestGeneratorsGolden(t *testing.T) {
	h := fnv.New64a()
	for _, edges := range [][]graph.Edge{
		RMAT(10, 2000, 7),
		Uniform(1000, 2000, 7),
		Evolving(10, 2000, 0.2, 7),
	} {
		for _, e := range edges {
			fmt.Fprint(h, e.Src, e.Dst, ";")
		}
	}
	if got, want := h.Sum64(), uint64(0xfed0e29149401ffa); got != want {
		t.Fatalf("generator hash = %#x, want %#x", got, want)
	}
}
