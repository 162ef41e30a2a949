package crashtest

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

// The property-column crash sweep (DESIGN.md §13). The column log shares
// the edge log's prefix-durability shape: records land in CRC-guarded
// 256B blocks in append order and a torn tail truncates at attach, so
// after any crash the recovered label/property state must be a prefix of
// the applied record stream. The differential check here is therefore:
//
//   - every durable edge reads back with its assigned label or the
//     default label (its record was in the torn tail) — NEVER a wrong
//     label;
//   - every vertex property reads back with its written value or unset —
//     never a wrong value;
//   - presence is hole-free in record order: a durable record implies
//     every earlier observable record is durable too.

const (
	propChunks     = 8
	propChunkEdges = 60
	propNV         = 64
)

// propEdge returns the i'th workload edge; all pairs are distinct so the
// label oracle is exact (no last-write-wins ambiguity).
func propEdge(i int) graph.Edge {
	return graph.Edge{Src: uint32(i % 16), Dst: uint32(16 + i/16)}
}

// propLabel is the label oracle: ~1/4 of the edges stay untyped.
func propLabel(i int) uint16 {
	e := propEdge(i)
	if (e.Src+e.Dst)%4 == 0 {
		return 0
	}
	return uint16(1 + (e.Src*31+e.Dst)%3)
}

// propRecord is one observable record of the applied stream, in order.
type propRecord struct {
	edge  bool // else vertex property
	i     int  // edge index
	v     uint32
	key   uint16
	val   int64
	where string
}

// runPropCrash drives the typed workload under plan, recovers from the
// durable image, and differentially verifies labels and properties.
func runPropCrash(plan xpsim.FaultPlan) (int64, error) {
	machine := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	faults := machine.TrackFaults()
	heap := pmem.NewHeap(machine)
	opts := core.Options{Name: "propcrash", NumVertices: propNV,
		LogCapacity: 256, ArchiveThreshold: 32, ArchiveThreads: 2, Props: true}
	st, err := core.New(machine, heap, nil, opts)
	if err != nil {
		return 0, err
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := st.RegisterLabel(name); err != nil {
			return 0, err
		}
	}

	faults.Arm(plan)
	var stream []propRecord
	for c := 0; c < propChunks; c++ {
		edges := make([]graph.Edge, propChunkEdges)
		labels := make([]uint16, propChunkEdges)
		for j := range edges {
			i := c*propChunkEdges + j
			edges[j], labels[j] = propEdge(i), propLabel(i)
			if labels[j] != 0 {
				stream = append(stream, propRecord{edge: true, i: i,
					where: fmt.Sprintf("edge %d chunk %d", i, c)})
			}
		}
		if _, err := st.IngestTyped(edges, labels); err != nil {
			return 0, fmt.Errorf("chunk %d: %w", c, err)
		}
		// One never-rewritten property per chunk: value is exact or unset.
		ps := graph.PropSet{V: uint32(c), Key: 1, Val: int64(c + 1)}
		if err := st.SetProps([]graph.PropSet{ps}); err != nil {
			return 0, err
		}
		stream = append(stream, propRecord{v: ps.V, key: ps.Key, val: ps.Val,
			where: fmt.Sprintf("prop v%d chunk %d", ps.V, c)})
		if err := st.FlushAllVbufs(); err != nil {
			return 0, fmt.Errorf("flush chunk %d: %w", c, err)
		}
	}

	clone, err := heap.CrashClone()
	if err != nil {
		return faults.MediaWrites(), err
	}
	rs, _, err := core.Recover(clone.Machine(), clone, nil, opts)
	if err != nil {
		return faults.MediaWrites(), fmt.Errorf("recover (crash: %s): %w", faults.CrashDescription(), err)
	}

	// Labels and properties of the durable state, through the one read
	// surface.
	got := difftest.Read(rs, 1)
	if err := got.Err(); err != nil {
		return faults.MediaWrites(), err
	}

	sawHole := ""
	for _, r := range stream {
		present := false
		if r.edge {
			e := propEdge(r.i)
			if !slices.Contains(got.Want(graph.Out, e.Src, prop.Filter{}), e.Dst) {
				continue // edge itself not durable: label unobservable
			}
			want, lbl := propLabel(r.i), got.Label(e.Src, e.Dst)
			switch lbl {
			case want:
				present = true
			case 0: // record in the torn tail; the edge reads untyped
			default:
				return faults.MediaWrites(), fmt.Errorf("silent wrong label at %s: got %d, want %d or 0 (crash: %s)",
					r.where, lbl, want, faults.CrashDescription())
			}
		} else {
			if val, ok := got.VProp(r.v, r.key); ok {
				if val != r.val {
					return faults.MediaWrites(), fmt.Errorf("silent wrong property at %s: got %d, want %d (crash: %s)",
						r.where, val, r.val, faults.CrashDescription())
				}
				present = true
			}
		}
		if present && sawHole != "" {
			return faults.MediaWrites(), fmt.Errorf("column log hole: %s durable but earlier %s lost (crash: %s)",
				r.where, sawHole, faults.CrashDescription())
		}
		if !present && sawHole == "" {
			sawHole = r.where
		}
	}
	if !faults.Crashed() && sawHole != "" {
		return faults.MediaWrites(), fmt.Errorf("no crash, but record lost: %s", sawHole)
	}
	return faults.MediaWrites(), nil
}

// TestCrashSweepPropColumns sweeps crash points across the typed
// workload's media writes under each tear mode.
func TestCrashSweepPropColumns(t *testing.T) {
	m, err := runPropCrash(xpsim.FaultPlan{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if m < 50 {
		t.Fatalf("workload too small to sweep: only %d media writes", m)
	}
	stride := m / 120
	if testing.Short() {
		stride = m / 25
	}
	if stride == 0 {
		stride = 1
	}
	for _, tear := range []xpsim.TearMode{xpsim.TearNone, xpsim.TearPrefix, xpsim.TearWords} {
		checked := 0
		for n := int64(1); n <= m; n += stride {
			plan := xpsim.FaultPlan{KillAtMediaWrite: n, Tear: tear, Seed: 0xBEEF ^ uint64(n)}
			if _, err := runPropCrash(plan); err != nil {
				t.Fatalf("kill at media write %d/%d tear=%s: %v", n, m, tear, err)
			}
			checked++
		}
		if (m-1)%stride != 0 {
			if _, err := runPropCrash(xpsim.FaultPlan{KillAtMediaWrite: m, Tear: tear}); err != nil {
				t.Fatalf("kill at final media write %d tear=%s: %v", m, tear, err)
			}
			checked++
		}
		t.Logf("tear=%s: %d/%d crash points verified", tear, checked, m)
	}
}
