// Package xpgraph is the public API of the XPGraph reproduction: an
// XPLine-friendly persistent-memory graph store for large-scale evolving
// graphs (Wang et al., MICRO 2022), together with the simulated Optane
// machine it runs on, the GraphOne baseline it is evaluated against, and
// the analytics and benchmark harnesses that regenerate the paper's
// evaluation.
//
// A minimal session:
//
//	m := xpgraph.NewDefaultMachine()
//	g, err := xpgraph.Open(m, xpgraph.Options{Name: "mygraph"})
//	...
//	g.AddEdge(1, 2)
//	ctx := xpgraph.NewQueryCtx(0)
//	nbrs := g.Nbrs(ctx, xpgraph.Out, 1, nil)
//
// Snapshots and the other read sources are read through Graph, which
// adds the direction-fixed conveniences to any View:
//
//	snap := g.Snapshot(ctx)
//	old := xpgraph.Graph{Source: snap}.NbrsOut(ctx, 1, nil)
//
// See the examples/ directory for complete programs and internal/bench
// for the per-figure experiment harness.
package xpgraph

import (
	"sync"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphone"
	"repro/internal/mem"
	"repro/internal/pmem"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// Re-exported core types. Store is the XPGraph instance; Options selects
// the variant (XPGraph, XPGraph-B via Battery, XPGraph-D via Medium),
// buffering strategy, NUMA mode and thresholds.
type (
	// Store is an XPGraph graph store.
	Store = core.Store
	// Options configure a Store.
	Options = core.Options
	// IngestReport summarizes an ingestion run in simulated time.
	IngestReport = core.IngestReport
	// RecoveryReport summarizes a crash recovery.
	RecoveryReport = core.RecoveryReport
	// MemUsage is the Table III memory breakdown.
	MemUsage = core.MemUsage
	// Snapshot is a consistent point-in-time query view that stays
	// stable while ingestion continues.
	Snapshot = core.Snapshot
	// Direction selects out- or in-neighbors.
	Direction = core.Direction
	// Edge is a directed edge update (Dst may carry DelFlag).
	Edge = graph.Edge
	// VID is a 4-byte vertex identifier.
	VID = graph.VID
	// Machine is the simulated PMEM testbed.
	Machine = xpsim.Machine
	// Heap hands out persistent regions on a Machine.
	Heap = pmem.Heap
	// Ctx carries a query/update thread's simulated clock and NUMA
	// placement.
	Ctx = xpsim.Ctx
	// Budget caps simulated DRAM usage.
	Budget = mem.Budget
	// Dataset is a catalog workload (Table II stand-ins).
	Dataset = gen.Dataset
	// View is the read surface every query workload is written against:
	// eight primitives that take a direction (DESIGN.md §6.1). Store (the
	// live XPGraph view), Snapshot (a consistent point-in-time view that
	// stays stable while ingestion continues and survives compaction) and
	// the GraphOne baseline store conform, so any of them can be swapped
	// in underneath the analytics engine and the benchmark harness.
	View = view.Source
	// Graph wraps a View with the direction-fixed conveniences (NbrsOut,
	// VisitIn, OutDegree, ...).
	Graph = view.Graph
)

// Compile-time conformance of the three stores to View.
var (
	_ View = (*core.Store)(nil)
	_ View = (*core.Snapshot)(nil)
	_ View = (*graphone.Store)(nil)
)

// GuardView wraps a View so every method runs under mu.RLock, letting
// readers share it with a writer that mutates the underlying store under
// mu.Lock — the synchronization the HTTP server uses between published
// snapshots and the ingest pipeline. Visit materializes under the lock
// and calls back after releasing it.
func GuardView(v View, mu *sync.RWMutex) View { return view.Guard(v, mu) }

// Variant selectors and NUMA/buffer modes.
const (
	MediumPMEM       = core.MediumPMEM
	MediumDRAM       = core.MediumDRAM
	MediumMemoryMode = core.MediumMemoryMode

	NUMANone     = core.NUMANone
	NUMAOutIn    = core.NUMAOutIn
	NUMASubgraph = core.NUMASubgraph

	BufferHierarchical = core.BufferHierarchical
	BufferFixed        = core.BufferFixed
	BufferNone         = core.BufferNone

	// Out and In are the adjacency directions.
	Out = core.Out
	In  = core.In
)

// NewMachine builds a simulated NUMA machine with `sockets` sockets and
// `pmemPerNode` bytes of Optane per socket, using the calibrated default
// latency model.
func NewMachine(sockets int, pmemPerNode int64) *Machine {
	return xpsim.NewMachine(sockets, pmemPerNode, xpsim.DefaultLatency())
}

// NewDefaultMachine builds the two-socket testbed the paper's experiments
// assume, with 4 GiB of simulated PMEM per socket.
func NewDefaultMachine() *Machine { return NewMachine(2, 4<<30) }

// NewHeap builds a persistent-region heap over the machine.
func NewHeap(m *Machine) *Heap { return pmem.NewHeap(m) }

// NewBudget caps simulated DRAM at capBytes (<=0: unlimited).
func NewBudget(capBytes int64) *Budget { return mem.NewBudget(capBytes) }

// Open creates an XPGraph store on the machine, mapping its persistent
// regions from a fresh heap. Use New for full control over heap sharing
// and DRAM budgets.
func Open(m *Machine, opts Options) (*Store, error) {
	return core.New(m, pmem.NewHeap(m), nil, opts)
}

// New creates a store with an explicit heap (share one heap across stores
// and recovery) and DRAM budget (nil: unlimited).
func New(m *Machine, h *Heap, b *Budget, opts Options) (*Store, error) {
	return core.New(m, h, b, opts)
}

// Recover re-attaches to the persistent state of a crashed store and
// rebuilds its DRAM structures (§III-B / §V-D of the paper). opts must
// match the geometry the store was created with.
func Recover(m *Machine, h *Heap, b *Budget, opts Options) (*Store, RecoveryReport, error) {
	return core.Recover(m, h, b, opts)
}

// NewQueryCtx returns an access context for a thread pinned to the given
// NUMA node (use UnboundNode for an unpinned thread).
func NewQueryCtx(node int) *Ctx { return xpsim.NewCtx(node) }

// UnboundNode marks a context whose thread is not pinned to any node.
const UnboundNode = xpsim.NodeUnbound

// Del returns the deletion record for (src, dst), usable with AddEdges.
func Del(src, dst VID) Edge { return graph.Del(src, dst) }

// RMAT generates a power-law edge stream with the Graph500 parameters —
// the workload generator behind the dataset catalog.
func RMAT(scale int, numEdges int64, seed uint64) []Edge {
	return gen.RMAT(scale, numEdges, seed)
}

// Datasets returns the scaled Table II dataset catalog.
func Datasets() []Dataset { return gen.Catalog() }

// DatasetByName finds a catalog dataset ("TT", "FS", ... "K30").
func DatasetByName(name string) (Dataset, error) { return gen.ByName(name) }
