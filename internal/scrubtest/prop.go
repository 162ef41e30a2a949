// Property-column media scenarios (DESIGN.md §13). The column log is a
// different media surface than the adjacency chains — sequential
// CRC-guarded 256B blocks with a DRAM mirror — so its scrub contract is
// pinned separately:
//
//   - live reads answer from the DRAM index, so UEs under column blocks
//     are invisible until a scrub or a recovery touches the media;
//   - a scrub rebuilds every bad block as a patch block from the mirror,
//     and the patched image recovers with the full typed state intact;
//   - unscrubbed mid-log damage surfaces at recovery as fail-closed
//     typed reads (prop.ErrDamaged) — never default-label answers —
//     while untyped adjacency reads keep serving oracle-exactly.
package scrubtest

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

const (
	propNV    = 64
	propEdges = 300
)

// propWorkload is the deterministic typed workload: distinct edges, all
// typed, plus one property per source vertex.
func propWorkload() ([]graph.Edge, []uint16, []graph.PropSet) {
	edges := make([]graph.Edge, propEdges)
	labels := make([]uint16, propEdges)
	for i := range edges {
		edges[i] = graph.Edge{Src: uint32(i % 16), Dst: uint32(16 + i/16)}
		labels[i] = uint16(1 + i%3)
	}
	props := make([]graph.PropSet, 16)
	for v := range props {
		props[v] = graph.PropSet{V: uint32(v), Key: 1, Val: int64(v * 10)}
	}
	return edges, labels, props
}

// buildProp constructs a MediaGuard store with property columns, ingests
// the typed workload, and flushes every record into PMEM blocks.
func buildProp(name string) (*core.Store, *xpsim.Faults, error) {
	machine := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	faults := machine.TrackFaults()
	st, err := core.New(machine, pmem.NewHeap(machine), nil, core.Options{
		Name: name, NumVertices: propNV, LogCapacity: 1 << 10,
		ArchiveThreshold: 1 << 6, ArchiveThreads: 2,
		MediaGuard: true, Props: true,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, l := range []string{"a", "b", "c"} {
		if _, err := st.RegisterLabel(l); err != nil {
			return nil, nil, err
		}
	}
	edges, labels, props := propWorkload()
	if _, err := st.IngestTyped(edges, labels); err != nil {
		return nil, nil, err
	}
	if err := st.SetProps(props); err != nil {
		return nil, nil, err
	}
	if err := st.BufferAllEdges(); err != nil {
		return nil, nil, err
	}
	if err := st.FlushAllVbufs(); err != nil {
		return nil, nil, err
	}
	return st, faults, nil
}

// propDifferential checks the typed read surface against the workload
// oracle: every edge carries exactly its assigned label, every written
// property reads back exactly, and a type filter prunes exactly.
func propDifferential(st *core.Store) error {
	edges, labels, props := propWorkload()
	wantLbl := map[graph.Edge]uint16{}
	for i, e := range edges {
		wantLbl[e] = labels[i]
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	got := map[graph.Edge]uint16{}
	for v := graph.VID(0); v < propNV; v++ {
		var lerr error
		err := st.Visit(ctx, core.Out, v, prop.Filter{}, func(nbr uint32) {
			lbl, err := st.Label(v, nbr)
			if err != nil && lerr == nil {
				lerr = err
			}
			got[graph.Edge{Src: uint32(v), Dst: nbr}] = lbl
		})
		if err == nil {
			err = lerr
		}
		if err != nil {
			return fmt.Errorf("typed visit %d: %w", v, err)
		}
	}
	if len(got) != len(wantLbl) {
		return fmt.Errorf("typed view has %d edges, want %d", len(got), len(wantLbl))
	}
	for e, want := range wantLbl {
		if got[e] != want {
			return fmt.Errorf("SILENT WRONG LABEL %d→%d: got %d, want %d", e.Src, e.Dst, got[e], want)
		}
	}
	for _, p := range props {
		val, ok, err := st.VProp(graph.VID(p.V), p.Key)
		if err != nil {
			return fmt.Errorf("VProp(%d): %w", p.V, err)
		}
		if !ok || val != p.Val {
			return fmt.Errorf("SILENT WRONG PROPERTY v%d: got %d,%v, want %d", p.V, val, ok, p.Val)
		}
	}
	// Pushdown spot check: filtering on label 2 keeps exactly its third.
	var kept, want int
	for _, l := range labels {
		if l == 2 {
			want++
		}
	}
	for v := graph.VID(0); v < propNV; v++ {
		err := st.Visit(ctx, core.Out, v, prop.Filter{Types: []uint16{2}}, func(uint32) { kept++ })
		if err != nil {
			return fmt.Errorf("filtered visit %d: %w", v, err)
		}
	}
	if kept != want {
		return fmt.Errorf("type filter kept %d edges, want %d", kept, want)
	}
	return nil
}

// RunPropScrubRepair drives the repair loop over the column log: UEs
// land under every written block, the scrub rebuilds each from the DRAM
// mirror as patch blocks, and the patched image survives crash +
// recovery with the full typed state.
func RunPropScrubRepair() error {
	st, faults, err := buildProp("prop-repair")
	if err != nil {
		return err
	}
	if err := propDifferential(st); err != nil {
		return fmt.Errorf("pre-damage: %w", err)
	}
	lines := st.PropMediaLines()
	if len(lines) < 4 {
		return fmt.Errorf("workload wrote only %d column blocks", len(lines))
	}
	for _, ln := range lines {
		faults.InjectUE(ln.Node, ln.Line)
	}
	// Live reads stay exact: they answer from the DRAM index.
	if err := propDifferential(st); err != nil {
		return fmt.Errorf("post-damage live reads: %w", err)
	}

	rep, err := st.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.PropBlocksBad != int64(len(lines)) {
		return fmt.Errorf("scrub found %d bad column blocks, injected %d (%+v)", rep.PropBlocksBad, len(lines), rep)
	}
	if rep.PropBlocksRebuilt != rep.PropBlocksBad || rep.PropUnrecoverable != 0 {
		return fmt.Errorf("scrub did not rebuild every column block: %+v", rep)
	}

	// The patched durable image recovers with the typed state intact,
	// even though every original block still sits on bad media.
	clone, err := st.Heap().CrashClone()
	if err != nil {
		return err
	}
	rs, _, err := core.Recover(clone.Machine(), clone, nil, core.Options{
		Name: "prop-repair", NumVertices: propNV, LogCapacity: 1 << 10,
		ArchiveThreshold: 1 << 6, ArchiveThreads: 2,
		MediaGuard: true, Props: true,
	})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if err := propDifferential(rs); err != nil {
		return fmt.Errorf("recovered: %w", err)
	}
	// Retired blocks are out of the scan set: a fresh scrub is clean.
	rep2, err := rs.Scrub()
	if err != nil {
		return fmt.Errorf("post-recovery scrub: %w", err)
	}
	if rep2.PropBlocksBad != 0 || rep2.PropUnrecoverable != 0 {
		return fmt.Errorf("post-recovery scrub found damage in a patched image: %+v", rep2)
	}
	return nil
}

// RunPropUnrecoverable pins the fail-closed path: mid-log damage that no
// scrub patched before the crash leaves the recovered columns damaged —
// every read of the columns (labels, properties, filtered visits) fails
// with prop.ErrDamaged (never a default-label answer), the scrub reports
// it unrecoverable, and the untyped adjacency surface keeps serving.
func RunPropUnrecoverable() error {
	st, faults, err := buildProp("prop-unrec")
	if err != nil {
		return err
	}
	lines := st.PropMediaLines()
	if len(lines) < 3 {
		return fmt.Errorf("workload wrote only %d column blocks", len(lines))
	}
	// A mid-log block: trailing damage would truncate as a torn tail.
	faults.InjectUE(lines[0].Node, lines[0].Line)

	clone, err := st.Heap().CrashClone()
	if err != nil {
		return err
	}
	rs, _, err := core.Recover(clone.Machine(), clone, nil, core.Options{
		Name: "prop-unrec", NumVertices: propNV, LogCapacity: 1 << 10,
		ArchiveThreshold: 1 << 6, ArchiveThreads: 2,
		MediaGuard: true, Props: true,
	})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}

	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	if err := rs.Visit(ctx, core.Out, 1, prop.Filter{Types: []uint16{1}}, func(uint32) {}); !errors.Is(err, prop.ErrDamaged) {
		return fmt.Errorf("filtered visit over damaged columns = %v, want prop.ErrDamaged", err)
	}
	if _, err := rs.Label(1, 2); !errors.Is(err, prop.ErrDamaged) {
		return fmt.Errorf("Label over damaged columns = %v, want prop.ErrDamaged", err)
	}
	if _, _, err := rs.VProp(1, 1); !errors.Is(err, prop.ErrDamaged) {
		return fmt.Errorf("VProp over damaged columns = %v, want prop.ErrDamaged", err)
	}
	rep, err := rs.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.PropUnrecoverable == 0 {
		return fmt.Errorf("scrub recovered a block with no mirror: %+v", rep)
	}
	// Adjacency is a separate surface: untyped reads stay oracle-exact.
	edges, _, _ := propWorkload()
	want := map[graph.VID]int{}
	for _, e := range edges {
		want[e.Src]++
	}
	for v := graph.VID(0); v < propNV; v++ {
		got, err := rs.NbrsChecked(ctx, core.Out, v, nil)
		if err != nil {
			return fmt.Errorf("untyped read %d: %v", v, err)
		}
		if len(got) != want[v] {
			return fmt.Errorf("untyped out(%d) = %d edges, want %d", v, len(got), want[v])
		}
	}
	return nil
}
