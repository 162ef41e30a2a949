package bench

import (
	"fmt"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

func init() {
	register("prop", "Typed edges + property columns: filter pushdown media savings and typed-ingest overhead", propExp)
}

// propHotMod labels one edge in propHotMod with the hot label the
// filtered traversal selects on; the rest split across two cold labels.
const propHotMod = 8

// propRoots is how many traversal roots the k-hop measurements
// aggregate over (spread deterministically across the vertex space so
// the numbers do not hinge on one root's degree).
const propRoots = 64

// PropReport is the machine-readable result behind BENCH_9.json. All
// numbers are simulated-clock / simulated-media, so at a fixed scale
// they are deterministic.
type PropReport struct {
	Dataset string `json:"dataset"`
	Edges   int64  `json:"edges"`
	// HotLabelFraction is the selectivity of the filtered traversal's
	// label (fraction of edges carrying it).
	HotLabelFraction float64 `json:"hot_label_fraction"`
	Roots            int     `json:"roots"`

	// Filtered 2-hop with the Types predicate pushed into adjacency
	// decode, vs the same traversal reading every edge and filtering
	// post-hoc. Each side runs on its own identically-built store so
	// neither inherits the other's XPBuffer warmth.
	FilteredMediaReadLines int64 `json:"filtered_media_read_lines"`
	ReadAllMediaReadLines  int64 `json:"read_all_media_read_lines"`
	// MediaReadSavings is read-all lines over filtered lines (the PR-9
	// gate wants >= 2x).
	MediaReadSavings float64 `json:"media_read_savings"`
	FilteredReached  int64   `json:"filtered_reached"`
	ReadAllReached   int64   `json:"read_all_reached"`

	// Ingest throughput on the simulated clock, final flush included —
	// the typed path pays for column-log appends at every flush point.
	PlainIngestMEdgesPerSec float64 `json:"plain_ingest_medges_per_sim_sec"`
	TypedIngestMEdgesPerSec float64 `json:"typed_ingest_medges_per_sim_sec"`
	// TypedIngestRatio is typed over plain (the PR-9 gate wants >= 0.8).
	TypedIngestRatio float64 `json:"typed_ingest_ratio"`
}

// propLabelsFor assigns the benchmark labeling: edge i carries the hot
// label when i%propHotMod == 0, otherwise one of two cold labels.
func propLabelsFor(n int, hot, coldA, coldB uint16) []uint16 {
	labels := make([]uint16, n)
	for i := range labels {
		switch {
		case i%propHotMod == 0:
			labels[i] = hot
		case i%2 == 0:
			labels[i] = coldA
		default:
			labels[i] = coldB
		}
	}
	return labels
}

// propRootsFor spreads traversal roots deterministically over the
// vertex space (Weyl sequence on a large odd multiplier).
func propRootsFor(numV uint32) []graph.VID {
	roots := make([]graph.VID, propRoots)
	for i := range roots {
		roots[i] = graph.VID((uint64(i+1) * 2654435761) % uint64(numV))
	}
	return roots
}

// buildTypedStore ingests the typed workload into a fresh
// property-enabled store and flushes it so queries read PMEM adjacency,
// not resident vertex buffers.
func buildTypedStore(edges []graph.Edge, labels []uint16, ds gen.Dataset, cfg Config) (*core.Store, *xpsim.Machine, core.IngestReport, error) {
	s, m, err := newXPGraph(edges, ds.NumVertices(), cfg, func(o *core.Options) {
		o.Props = true
		// Every edge in this workload carries a non-default label (one
		// 16 B column record each; 15 ride per 256 B block): size the
		// column log for the stream instead of the 1 MiB default.
		o.PropLogBytes = int64(len(edges))*20 + (1 << 20)
	})
	if err != nil {
		return nil, nil, core.IngestReport{}, err
	}
	for _, name := range []string{"hot", "cold-a", "cold-b"} {
		if _, err := s.RegisterLabel(name); err != nil {
			return nil, nil, core.IngestReport{}, err
		}
	}
	if _, err := s.IngestTyped(edges, labels); err != nil {
		return nil, nil, core.IngestReport{}, err
	}
	if err := s.FlushAllVbufs(); err != nil {
		return nil, nil, core.IngestReport{}, err
	}
	return s, m, s.Report(), nil
}

// khopLines runs the 2-hop traversal from every root under f and
// reports (media lines read, vertices reached). Stats are reset first,
// so the count is the traversal's own traffic.
func khopLines(e *analytics.Engine, m *xpsim.Machine, roots []graph.VID, f prop.Filter) (int64, int64, error) {
	m.ResetStats()
	var reached int64
	for _, root := range roots {
		res, err := e.KHopFiltered(root, 2, f)
		if err != nil {
			return 0, 0, err
		}
		reached += res.Reached
	}
	return m.TotalStats().MediaReadLines, reached, nil
}

// propExp regenerates the PR-9 evaluation: a typed 2-hop with the label
// filter pushed into adjacency decode against read-all-then-filter, and
// typed-edge ingest against the plain pipeline. Pushdown saves media by
// shrinking the frontier — a pruned hop-1 neighbor's adjacency is never
// read at hop 2; the post-hoc filter in the baseline costs no media (the
// label index is DRAM), so the measured gap is pure frontier shrinkage.
func propExp(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "TT")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "prop",
		Title: "Typed edges + property columns: pushdown vs read-all-then-filter, typed ingest overhead",
		Columns: []string{"dataset", "edges", "hot_frac",
			"filtered_rd_lines", "readall_rd_lines", "rd_savings",
			"plain_Medges_s", "typed_Medges_s", "typed_ratio"},
		Notes: []string{
			"rd_lines = simulated media XPLines read by a 2-hop from 64 roots (cold store per side)",
			"pushdown prunes the frontier during adjacency decode; read-all expands everything and filters in DRAM",
			"ingest rates are simulated-clock (final flush included); typed adds column-log appends at flush points",
		},
	}
	var reports []PropReport

	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		labels := propLabelsFor(len(edges), 1, 2, 3)
		rep := PropReport{
			Dataset:          ds.Name,
			Edges:            int64(len(edges)),
			HotLabelFraction: 1.0 / float64(propHotMod),
			Roots:            propRoots,
		}
		roots := propRootsFor(ds.NumVertices())

		// Filtered 2-hop on a typed store: the hot-label predicate rides
		// down into the filtered Visit.
		sF, mF, typedRep, err := buildTypedStore(edges, labels, ds, cfg)
		if err != nil {
			return Table{}, fmt.Errorf("prop: typed build: %w", err)
		}
		eF := analytics.NewEngine(sF, &mF.Lat, cfg.QueryThreads)
		rep.FilteredMediaReadLines, rep.FilteredReached, err =
			khopLines(eF, mF, roots, prop.Filter{Types: []uint16{1}})
		if err != nil {
			return Table{}, fmt.Errorf("prop: filtered khop: %w", err)
		}

		// Read-all-then-filter on an identically-built store: expand every
		// edge (empty filter), filter afterwards against the DRAM label
		// index (no media charge — the baseline's media cost is the
		// traversal itself).
		sA, mA, _, err := buildTypedStore(edges, labels, ds, cfg)
		if err != nil {
			return Table{}, fmt.Errorf("prop: baseline build: %w", err)
		}
		eA := analytics.NewEngine(sA, &mA.Lat, cfg.QueryThreads)
		rep.ReadAllMediaReadLines, rep.ReadAllReached, err =
			khopLines(eA, mA, roots, prop.Filter{})
		if err != nil {
			return Table{}, fmt.Errorf("prop: read-all khop: %w", err)
		}
		if rep.FilteredMediaReadLines > 0 {
			rep.MediaReadSavings = float64(rep.ReadAllMediaReadLines) / float64(rep.FilteredMediaReadLines)
		}

		// Typed ingest throughput came from the filtered store's build;
		// plain runs the same stream through a property-less store.
		sP, _, err := newXPGraph(edges, ds.NumVertices(), cfg)
		if err != nil {
			return Table{}, err
		}
		if _, err := sP.Ingest(edges); err != nil {
			return Table{}, err
		}
		if err := sP.FlushAllVbufs(); err != nil {
			return Table{}, err
		}
		plainRep := sP.Report()
		if ns := plainRep.TotalNs(); ns > 0 {
			rep.PlainIngestMEdgesPerSec = float64(len(edges)) / (float64(ns) / 1e9) / 1e6
		}
		if ns := typedRep.TotalNs(); ns > 0 {
			rep.TypedIngestMEdgesPerSec = float64(len(edges)) / (float64(ns) / 1e9) / 1e6
		}
		if rep.PlainIngestMEdgesPerSec > 0 {
			rep.TypedIngestRatio = rep.TypedIngestMEdgesPerSec / rep.PlainIngestMEdgesPerSec
		}

		t.Rows = append(t.Rows, []string{
			ds.Name, fmt.Sprintf("%d", len(edges)),
			fmt.Sprintf("%.3f", rep.HotLabelFraction),
			fmt.Sprintf("%d", rep.FilteredMediaReadLines),
			fmt.Sprintf("%d", rep.ReadAllMediaReadLines),
			fmt.Sprintf("%.2fx", rep.MediaReadSavings),
			fmt.Sprintf("%.2f", rep.PlainIngestMEdgesPerSec),
			fmt.Sprintf("%.2f", rep.TypedIngestMEdgesPerSec),
			fmt.Sprintf("%.3f", rep.TypedIngestRatio),
		})
		reports = append(reports, rep)
	}
	t.JSON = map[string]any{"experiment": "prop", "reports": reports}
	return t, nil
}
