// Package scrubtest is the differential media-error verifier: it runs a
// deterministic workload on a MediaGuard store, injects uncorrectable
// errors (xpsim.Faults.InjectUE) under live adjacency chains, and checks
// the store's checked read path vertex-for-vertex against the shared
// oracle (internal/difftest).
//
// The contract under test is the media-tolerance invariant: a checked
// read either returns exactly what the oracle holds or fails with a
// typed error (*xpsim.MediaError, *adj.CorruptError,
// *core.UnrecoverableError) — it never returns silently wrong edges. On
// top of that the harness drives the repair loop: after core.Scrub the
// damaged vertices must be rebuilt from the SSD archive or the resident
// edge-log window, the store must report HealthOK again, and every read
// must match the oracle with no errors left. Separate scenarios cover
// the unrecoverable path (no rebuild source → typed failure, degraded
// health), whole-NUMA-node failure (readonly health, healthy partitions
// keep serving), and quarantine persistence across crash + recovery.
package scrubtest

import (
	"errors"
	"fmt"

	"repro/internal/adj"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// Config describes one deterministic scrub workload.
type Config struct {
	Name     string  // store/region name prefix
	Scale    int     // vertex-ID space is 1<<Scale
	Edges    int64   // workload length
	DelRatio float64 // fraction of deletions (gen.Evolving); 0 = adds only
	Seed     uint64  // workload generator seed

	LogCapacity      int64
	ArchiveThreshold int64
	ArchiveThreads   int
	NUMA             core.NUMAMode
	ArchiveSSDBytes  int64 // SSD edge archive size (0 = log-window rebuilds only)

	Chunk     int // edges per Ingest call (0 = all at once)
	UETargets int // vertices whose chains get UE-injected (default 4)

	// Varint runs the workload on delta-varint adjacency blocks, so UE
	// damage and scrub rebuilds land on variable-length payloads.
	Varint bool
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "scrub"
	}
	if c.Scale == 0 {
		c.Scale = 6
	}
	if c.Edges == 0 {
		c.Edges = 600
	}
	if c.LogCapacity == 0 {
		c.LogCapacity = 1 << 10
	}
	if c.ArchiveThreshold == 0 {
		c.ArchiveThreshold = 1 << 6
	}
	if c.ArchiveThreads == 0 {
		c.ArchiveThreads = 2
	}
	if c.Chunk == 0 {
		c.Chunk = int(c.Edges)
	}
	if c.UETargets == 0 {
		c.UETargets = 4
	}
	return c
}

func (c Config) storeOptions() core.Options {
	return core.Options{
		Name:             c.Name,
		NumVertices:      1 << c.Scale,
		LogCapacity:      c.LogCapacity,
		ArchiveThreshold: c.ArchiveThreshold,
		ArchiveThreads:   c.ArchiveThreads,
		NUMA:             c.NUMA,
		MediaGuard:       true,
		ArchiveSSDBytes:  c.ArchiveSSDBytes,
		CompressedAdj:    c.Varint,
	}
}

// build constructs the fault-tracked machine, heap, and MediaGuard store,
// ingests the workload, and flushes everything into PMEM chains so UE
// injection hits data the checked read path must cover.
func build(cfg Config) (*core.Store, *xpsim.Faults, []graph.Edge, error) {
	machine := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	faults := machine.TrackFaults()
	st, err := core.New(machine, pmem.NewHeap(machine), nil, cfg.storeOptions())
	if err != nil {
		return nil, nil, nil, err
	}
	edges := difftest.Stream(cfg.Scale, cfg.Edges, cfg.DelRatio, cfg.Seed)
	for i := 0; i < len(edges); i += cfg.Chunk {
		end := i + cfg.Chunk
		if end > len(edges) {
			end = len(edges)
		}
		if _, err := st.Ingest(edges[i:end]); err != nil {
			return nil, nil, nil, fmt.Errorf("ingest: %w", err)
		}
	}
	if err := st.BufferAllEdges(); err != nil {
		return nil, nil, nil, err
	}
	if err := st.FlushAllVbufs(); err != nil {
		return nil, nil, nil, err
	}
	return st, faults, edges, nil
}

// typedMediaError reports whether err is one of the typed failures the
// media-tolerance contract allows a checked read to return.
func typedMediaError(err error) bool {
	var me *xpsim.MediaError
	var ce *adj.CorruptError
	var ue *core.UnrecoverableError
	return errors.As(err, &me) || errors.As(err, &ce) || errors.As(err, &ue)
}

// differential checks every vertex in both directions through the
// checked read path against the oracle: a read must match exactly or
// fail with a typed media error, and it returns how many failed. Any
// silently wrong neighbor list is fatal — it is the one outcome the
// media-tolerance layer exists to prevent.
func differential(st *core.Store, o *difftest.Oracle) (failed int, err error) {
	err = difftest.Check(st, o, difftest.Opts{Checked: true,
		OnErr: func(d graph.Direction, v graph.VID, rerr error) error {
			if !typedMediaError(rerr) {
				return fmt.Errorf("vertex %d dir %d: untyped error %v", v, d, rerr)
			}
			failed++
			return nil
		}})
	return failed, err
}

// clean is a differential in which no read may fail.
func clean(st *core.Store, o *difftest.Oracle) error {
	failed, err := differential(st, o)
	if err == nil && failed != 0 {
		err = fmt.Errorf("%d reads failed", failed)
	}
	return err
}

// detect pins the detection half of the contract on st: every read is
// clean before the damage; after UEs land under n vertices' chains no
// read returns wrong data and at least the damaged vertices fail typed.
func detect(st *core.Store, faults *xpsim.Faults, o *difftest.Oracle, n int) error {
	if err := clean(st, o); err != nil {
		return fmt.Errorf("pre-damage: %w", err)
	}
	targets := injectChains(st, faults, n)
	if len(targets) == 0 {
		return fmt.Errorf("workload left no PMEM chains to damage")
	}
	failed, err := differential(st, o)
	if err != nil {
		return fmt.Errorf("post-damage differential: %w", err)
	}
	if failed < len(targets) {
		return fmt.Errorf("only %d reads failed for %d damaged vertices", failed, len(targets))
	}
	return nil
}

// repairAll scrubs st and requires a full repair: nothing
// unrecoverable, HealthOK, and every read oracle-exact again.
func repairAll(st *core.Store, o *difftest.Oracle) (core.ScrubReport, error) {
	rep, err := st.Scrub()
	if err != nil {
		return rep, fmt.Errorf("scrub: %w", err)
	}
	if rep.Unrecoverable != 0 || rep.Repaired != rep.Damaged {
		return rep, fmt.Errorf("scrub did not repair everything: %+v", rep)
	}
	if h := st.Health(); h.State != core.HealthOK {
		return rep, fmt.Errorf("health after scrub = %v (%+v)", h.State, h)
	}
	if err := clean(st, o); err != nil {
		return rep, fmt.Errorf("post-scrub: %w", err)
	}
	return rep, nil
}

// injectChains marks every XPLine backing the Out-chains of n vertices
// as uncorrectable, scrambling the stored bytes. Returns the vertices
// hit. Blocks are denser than lines, so collateral damage to neighbors
// sharing a line is expected — the differential check covers everyone.
func injectChains(st *core.Store, faults *xpsim.Faults, n int) []graph.VID {
	var targets []graph.VID
	for v := graph.VID(0); v < st.NumVertices() && len(targets) < n; v++ {
		lines := st.VertexMediaLines(core.Out, v)
		if len(lines) == 0 {
			continue
		}
		for _, ln := range lines {
			faults.InjectUE(ln.Node, ln.Line)
		}
		targets = append(targets, v)
	}
	return targets
}

// ---- scenarios ----

// RunUEDetection pins the detection half of the contract: after UEs land
// under live chains, no checked read returns silently wrong data — every
// read either matches the oracle or fails typed — and at least the
// injected vertices do fail.
func RunUEDetection(cfg Config) error {
	cfg = cfg.withDefaults()
	st, faults, edges, err := build(cfg)
	if err != nil {
		return err
	}
	return detect(st, faults, difftest.FromEdges(edges), cfg.UETargets)
}

// RunScrubRepair drives the full detect → scrub → repair loop: after the
// scrub every read matches the oracle with no errors left and the store
// reports HealthOK. With cfg.ArchiveSSDBytes set the rebuild comes from
// the SSD archive; otherwise every record must still be resident in the
// edge-log window (size cfg.Edges <= cfg.LogCapacity accordingly).
func RunScrubRepair(cfg Config) error {
	cfg = cfg.withDefaults()
	st, faults, edges, err := build(cfg)
	if err != nil {
		return err
	}
	o := difftest.FromEdges(edges)
	targets := injectChains(st, faults, cfg.UETargets)
	if len(targets) == 0 {
		return fmt.Errorf("workload left no PMEM chains to damage")
	}

	rep, err := repairAll(st, o)
	if err != nil {
		return err
	}
	if rep.Damaged < int64(len(targets)) {
		return fmt.Errorf("scrub found %d damaged, injected %d", rep.Damaged, len(targets))
	}
	if rep.SpansQuarantined == 0 {
		return fmt.Errorf("repair quarantined nothing: %+v", rep)
	}
	return nil
}

// RunUnrecoverable pins the honest-failure path: with no SSD archive and
// a workload long enough that early records rotated out of the edge-log
// window, a damaged early vertex has no rebuild source. The scrub must
// report it unrecoverable (never fabricate a partial chain), the store
// must go degraded, and reads of it must fail with *UnrecoverableError
// while every other read still matches the oracle.
func RunUnrecoverable(cfg Config) error {
	cfg = cfg.withDefaults()
	if cfg.ArchiveSSDBytes != 0 {
		return fmt.Errorf("RunUnrecoverable requires no archive")
	}
	if cfg.Edges <= cfg.LogCapacity {
		return fmt.Errorf("workload (%d edges) must overflow the log window (%d)", cfg.Edges, cfg.LogCapacity)
	}
	st, faults, edges, err := build(cfg)
	if err != nil {
		return err
	}
	o := difftest.FromEdges(edges)

	// Target a vertex whose record stream is no longer fully resident:
	// count its out-records in the log window and compare to the store.
	lo := st.Log().Head() - st.Log().Cap()
	if lo < 0 {
		lo = 0
	}
	windowCount := map[graph.VID]int{}
	for _, e := range edges[lo:st.Log().Head()] {
		if !e.IsDelete() {
			windowCount[e.Src]++
		}
	}
	var rotated []graph.VID
	for v := graph.VID(0); v < st.NumVertices() && len(rotated) < cfg.UETargets; v++ {
		if st.Degree(core.Out, v) > windowCount[v] && len(st.VertexMediaLines(core.Out, v)) > 0 {
			rotated = append(rotated, v)
		}
	}
	if len(rotated) == 0 {
		return fmt.Errorf("no vertex lost records to log rotation; grow cfg.Edges")
	}
	for _, v := range rotated {
		for _, ln := range st.VertexMediaLines(core.Out, v) {
			faults.InjectUE(ln.Node, ln.Line)
		}
	}

	rep, err := st.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.Unrecoverable == 0 {
		return fmt.Errorf("scrub recovered everything despite rotation: %+v", rep)
	}
	if h := st.Health(); h.State != core.HealthDegraded {
		return fmt.Errorf("health = %v, want degraded (%+v)", h.State, h)
	}

	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	var sawUnrec bool
	for _, v := range rotated {
		_, rerr := st.NbrsChecked(ctx, core.Out, v, nil)
		var ue *core.UnrecoverableError
		if errors.As(rerr, &ue) {
			sawUnrec = true
		}
	}
	if !sawUnrec {
		return fmt.Errorf("no rotated target failed with UnrecoverableError")
	}
	// The rest of the graph keeps serving, oracle-exact.
	if _, err := differential(st, o); err != nil {
		return fmt.Errorf("post-scrub differential: %w", err)
	}
	return nil
}

// RunMixedFormatScrub pins media tolerance over mixed-format chains: a
// fixed-block store crashes cleanly, the recovered store enables the
// varint encoding and ingests a continuation (varint tails on fixed
// chains), then UEs land under the mixed chains. Checked reads must stay
// oracle-or-typed-error, and the scrub must rebuild every damaged vertex
// from the resident log window — regardless of which encodings its chain
// mixed. cfg.Edges + contEdges must fit in LogCapacity.
func RunMixedFormatScrub(cfg Config, contEdges int64) error {
	cfg = cfg.withDefaults()
	if cfg.Varint {
		return fmt.Errorf("RunMixedFormatScrub builds the first phase on fixed blocks; leave Varint unset")
	}
	if cfg.Edges+contEdges > cfg.LogCapacity {
		return fmt.Errorf("workload (%d+%d edges) must fit the log window (%d) for rebuilds",
			cfg.Edges, contEdges, cfg.LogCapacity)
	}
	st, _, edges, err := build(cfg)
	if err != nil {
		return err
	}

	clone, err := st.Heap().CrashClone()
	if err != nil {
		return err
	}
	faults := clone.Machine().TrackFaults()
	opts := cfg.storeOptions()
	opts.CompressedAdj = true
	rs, _, err := core.Recover(clone.Machine(), clone, nil, opts)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	cont := gen.RMAT(cfg.Scale, contEdges, cfg.Seed^0x717)
	if _, err := rs.Ingest(cont); err != nil {
		return fmt.Errorf("continuation ingest: %w", err)
	}
	if err := rs.BufferAllEdges(); err != nil {
		return err
	}
	if err := rs.FlushAllVbufs(); err != nil {
		return err
	}
	if es := rs.AdjEncoding(); es.VarintRecords == 0 {
		return fmt.Errorf("continuation wrote no varint records; chains are not mixed")
	}

	o := difftest.FromEdges(append(append([]graph.Edge(nil), edges...), cont...))
	if err := detect(rs, faults, o, cfg.UETargets); err != nil {
		return err
	}
	_, err = repairAll(rs, o)
	return err
}

// RunNodeFailure pins whole-device failure: kill one NUMA node of a
// NUMASubgraph store and the store answers reads for partitions on the
// healthy node oracle-exactly, fails reads on the dead node typed,
// refuses ingestion with a media error, and recovers to HealthOK when
// the node revives.
func RunNodeFailure(cfg Config) error {
	cfg = cfg.withDefaults()
	cfg.NUMA = core.NUMASubgraph
	st, faults, edges, err := build(cfg)
	if err != nil {
		return err
	}
	o := difftest.FromEdges(edges)

	const dead = 1
	faults.FailNode(dead)
	if h := st.Health(); h.State != core.HealthReadonly {
		return fmt.Errorf("health with dead node = %v", h.State)
	}
	if _, ierr := st.Ingest([]graph.Edge{{Src: 1, Dst: 2}}); ierr == nil {
		return fmt.Errorf("ingest succeeded on a store with a dead node")
	} else if !typedMediaError(ierr) {
		return fmt.Errorf("ingest refusal is untyped: %v", ierr)
	}

	// Healthy partitions answer oracle-exactly; reads on the dead node
	// fail typed.
	failed := 0
	err = difftest.Check(st, o, difftest.Opts{Checked: true,
		OnErr: func(d graph.Direction, v graph.VID, rerr error) error {
			switch {
			case !typedMediaError(rerr):
				return fmt.Errorf("vertex %d dir %d: untyped error %v", v, d, rerr)
			case st.Node(d, v) != dead:
				return fmt.Errorf("vertex %d dir %d on healthy node failed: %v", v, d, rerr)
			}
			failed++
			return nil
		}})
	if err != nil {
		return err
	}
	healthy := 0
	for v := graph.VID(0); v < st.NumVertices(); v++ {
		for d := graph.Out; d <= graph.In; d++ {
			if st.Node(d, v) != dead {
				healthy++
			}
		}
	}
	if healthy == 0 || failed == 0 {
		return fmt.Errorf("partition split not exercised: healthy=%d failed=%d", healthy, failed)
	}

	faults.ReviveNode(dead)
	if h := st.Health(); h.State != core.HealthOK {
		return fmt.Errorf("health after revive = %v", h.State)
	}
	if err := clean(st, o); err != nil {
		return fmt.Errorf("post-revive: %w", err)
	}
	return nil
}

// RunQuarantinePersistence pins recovery: damage, scrub (repair +
// quarantine), crash, recover with the SSD archive re-attached — the
// quarantine must survive (same spans, no bad block recycled), the fault
// state must propagate to the clone, the recovered store must serve the
// full oracle view, and a fresh scrub must find nothing new.
func RunQuarantinePersistence(cfg Config) error {
	cfg = cfg.withDefaults()
	st, faults, edges, err := build(cfg)
	if err != nil {
		return err
	}
	o := difftest.FromEdges(edges)
	if targets := injectChains(st, faults, cfg.UETargets); len(targets) == 0 {
		return fmt.Errorf("workload left no PMEM chains to damage")
	}
	rep, err := st.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.Repaired == 0 || rep.SpansQuarantined == 0 {
		return fmt.Errorf("scrub did not repair+quarantine: %+v", rep)
	}
	want := st.Health()

	clone, err := st.Heap().CrashClone()
	if err != nil {
		return err
	}
	if f := clone.Machine().Faults(); f == nil || f.UECount() == 0 {
		return fmt.Errorf("media fault state did not propagate to the crash clone")
	}
	opts := cfg.storeOptions()
	opts.ArchiveSSDBytes = 0
	opts.Archive = st.Archive()
	rs, _, err := core.Recover(clone.Machine(), clone, nil, opts)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}

	got := rs.Health()
	if got.QuarantinedSpans != want.QuarantinedSpans || got.QuarantinedBytes != want.QuarantinedBytes {
		return fmt.Errorf("quarantine lost across recovery: got %+v, want %+v", got, want)
	}
	if got.State != want.State {
		return fmt.Errorf("health state changed across recovery: got %v, want %v", got.State, want.State)
	}
	if err := clean(rs, o); err != nil {
		return fmt.Errorf("recovered: %w", err)
	}
	rep2, err := rs.Scrub()
	if err != nil {
		return fmt.Errorf("post-recovery scrub: %w", err)
	}
	if rep2.Damaged != 0 {
		return fmt.Errorf("post-recovery scrub found new damage: %+v", rep2)
	}
	return nil
}
