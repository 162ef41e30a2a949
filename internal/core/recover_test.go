package core

import (
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

func TestRecoveryAllNUMAModes(t *testing.T) {
	edges := dedupEdges(gen.RMAT(9, 4000, 91))
	for name, mode := range map[string]NUMAMode{"none": NUMANone, "outin": NUMAOutIn, "subgraph": NUMASubgraph} {
		t.Run(name, func(t *testing.T) {
			m, h := testMachine()
			opts := Options{Name: "rm-" + name, NumVertices: 512,
				LogCapacity: 1 << 11, ArchiveThreshold: 1 << 7, ArchiveThreads: 4, NUMA: mode}
			s, err := New(m, h, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Ingest(edges); err != nil {
				t.Fatal(err)
			}
			s = nil
			rs, _, err := Recover(m, h, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, rs, buildReference(edges), 512)
		})
	}
}

func TestRecoveryWithDeletions(t *testing.T) {
	// Deletion tombstones in the replay window must survive recovery
	// with the same multiset semantics.
	m, h := testMachine()
	opts := Options{Name: "rdel", NumVertices: 64,
		LogCapacity: 1 << 10, ArchiveThreshold: 16, ArchiveThreads: 2}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	edges := []graph.Edge{
		{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 1, Dst: 4},
		graph.Del(1, 3),
		{Src: 2, Dst: 1}, {Src: 3, Dst: 1},
		graph.Del(3, 1),
	}
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	s = nil
	rs, _, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	if got := rs.Nbrs(ctx, Out, 1, nil); !sameMultiset(got, []uint32{2, 4}) {
		t.Fatalf("out(1) after recovery = %v, want {2,4}", got)
	}
	if got := rs.Nbrs(ctx, In, 1, nil); !sameMultiset(got, []uint32{2}) {
		t.Fatalf("in(1) after recovery = %v, want {2}", got)
	}
}

func TestRecoverEmptyStore(t *testing.T) {
	m, h := testMachine()
	opts := Options{Name: "rempty", NumVertices: 8}
	if _, err := New(m, h, nil, opts); err != nil {
		t.Fatal(err)
	}
	rs, rep, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 0 || rep.BlocksScanned != 0 {
		t.Fatalf("empty recovery report: %+v", rep)
	}
	ctx := xpsim.NewCtx(0)
	if got := rs.Nbrs(ctx, Out, 1, nil); len(got) != 0 {
		t.Fatalf("empty store has neighbors: %v", got)
	}
}

func TestRecoverMissingRegions(t *testing.T) {
	m, h := testMachine()
	if _, _, err := Recover(m, h, nil, Options{Name: "never-created"}); err == nil {
		t.Fatal("recovering a store that never existed should fail")
	}
}

func TestRecoverRejectsVolatile(t *testing.T) {
	m, _ := testMachine()
	if _, _, err := Recover(m, nil, nil, Options{Name: "x", Medium: MediumDRAM}); err == nil {
		t.Fatal("volatile media must not be recoverable")
	}
}

func TestRecoveryRepeatedCrashes(t *testing.T) {
	// Crash, recover, ingest more, crash again, recover again.
	m, h := testMachine()
	opts := Options{Name: "r2", NumVertices: 256,
		LogCapacity: 1 << 10, ArchiveThreshold: 1 << 6, ArchiveThreads: 2}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	part1 := dedupEdges(gen.RMAT(8, 1000, 92))
	if _, err := s.Ingest(part1); err != nil {
		t.Fatal(err)
	}
	s = nil
	r1, _, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	part2 := []graph.Edge{{Src: 250, Dst: 251}, {Src: 251, Dst: 252}}
	if _, err := r1.Ingest(part2); err != nil {
		t.Fatal(err)
	}
	r1 = nil
	r2, _, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, r2, buildReference(append(part1, part2...)), 256)
}

func TestCrossProcessRecovery(t *testing.T) {
	// Full durability cycle: ingest, serialize the simulated PMEM to a
	// file ("power off"), load it in a fresh machine ("power on"), and
	// recover the store from the image alone.
	edges := dedupEdges(gen.RMAT(9, 4000, 81))
	opts := Options{Name: "xproc", NumVertices: 512,
		LogCapacity: 1 << 11, ArchiveThreshold: 1 << 7, ArchiveThreads: 4}

	m, h := testMachine()
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.xpg")
	if err := pmem.SaveFile(path, h); err != nil {
		t.Fatal(err)
	}

	// "New process": nothing survives but the file.
	m2, h2, err := pmem.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rs, rep, err := Recover(m2, h2, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksScanned == 0 {
		t.Fatal("recovery scanned nothing")
	}
	checkAgainstReference(t, rs, buildReference(edges), 512)
	if _, err := rs.Verify(xpsim.NewCtx(0)); err != nil {
		t.Fatalf("verify after cross-process recovery: %v", err)
	}
}

func TestRecoverRejectsBattery(t *testing.T) {
	m, h := testMachine()
	if _, _, err := Recover(m, h, nil, Options{Name: "bat", Battery: true}); err == nil {
		t.Fatal("battery-backed stores must not be crash-recovered")
	}
}

func TestRecoverRejectsSSDOverflow(t *testing.T) {
	m, h := testMachine()
	if _, _, err := Recover(m, h, nil, Options{Name: "ssd", SSDOverflow: 1 << 20}); err == nil {
		t.Fatal("SSD-tiered stores must not be crash-recovered")
	}
}

func TestRecoverRejectsRelaxedDurability(t *testing.T) {
	m, h := testMachine()
	if _, _, err := Recover(m, h, nil, Options{Name: "rlx", RelaxedDurability: true}); err == nil {
		t.Fatal("relaxed-durability stores must not be crash-recovered")
	}
}

func TestRecoverRejectsWrongLogCapacity(t *testing.T) {
	// Same store name, wrong geometry: the persisted log capacity is
	// authoritative and a mismatched Options must be rejected, not
	// silently reinterpreted.
	m, h := testMachine()
	opts := Options{Name: "geom", NumVertices: 64, LogCapacity: 1 << 10, ArchiveThreshold: 16, ArchiveThreads: 2}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.LogCapacity = 1 << 11
	if _, _, err := Recover(m, h, nil, bad); err == nil {
		t.Fatal("wrong log capacity must fail recovery")
	}
	if rs, _, err := Recover(m, h, nil, opts); err != nil {
		t.Fatalf("correct geometry must still recover: %v", err)
	} else if got := rs.Nbrs(xpsim.NewCtx(0), Out, 1, nil); !sameMultiset(got, []uint32{2}) {
		t.Fatalf("out(1) = %v, want {2}", got)
	}
}

func TestRecoverRejectsWrongNUMAMode(t *testing.T) {
	// A store created with one NUMA mode has differently-named adjacency
	// regions than another mode expects; recovery must report the missing
	// region instead of recovering a partial graph.
	m, h := testMachine()
	opts := Options{Name: "numa-geom", NumVertices: 64, LogCapacity: 1 << 10,
		ArchiveThreshold: 16, ArchiveThreads: 2, NUMA: NUMASubgraph}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.NUMA = NUMANone
	if _, _, err := Recover(m, h, nil, bad); err == nil {
		t.Fatal("wrong NUMA mode must fail recovery")
	}
}
