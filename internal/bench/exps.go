package bench

import (
	"errors"
	"fmt"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphone"
	"repro/internal/mem"
	"repro/internal/view"
	"repro/internal/xpsim"
)

func init() {
	register("fig3", "GraphOne-D vs GraphOne-P: phase times and PMEM amounts (motivation)", fig3)
	register("fig4", "NUMA effect and archive-thread sweep for GraphOne (motivation)", fig4)
	register("fig11", "Graph ingestion time, non-volatile systems", fig11)
	register("fig12", "Graph ingestion time, volatile systems (DRAM-only and Memory Mode)", fig12)
	register("fig13", "PMEM read and write data amount during ingestion", fig13)
	register("fig14", "Graph query performance (1-hop, BFS, PageRank, CC)", fig14)
	register("fig15", "Graph recovery performance", fig15)
	register("fig16", "Fixed per-vertex buffer size sweep (time and DRAM demand)", fig16)
	register("fig17", "Hierarchical buffer max-size sweep vs fixed buffers", fig17)
	register("fig18", "NUMA-friendly accessing strategies (ingest and BFS)", fig18)
	register("fig19", "Vertex-buffer memory pool size sweep", fig19)
	register("fig20", "XPGraph archive-thread sweep", fig20)
	register("table2", "Dataset statistics (scaled stand-ins)", table2)
	register("table3", "Memory usage breakdown of XPGraph", table3)
	register("ablation", "XPGraph technique ablation (extension)", ablation)
	register("ext-ssd", "SSD-supported XPGraph prototype (extension)", extSSD)
	register("ext-hotcold", "Hot vs flushed vertex-buffer query cost (extension)", extHotCold)
	register("ext-evolving", "Mixed add/delete update stream (extension)", extEvolving)
}

// ---- Fig. 3: motivation, GraphOne-D vs -P ----

func fig3(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig3", Title: "GraphOne on DRAM vs PMEM: phase split and PMEM traffic (FS)",
		Columns: []string{"dataset", "system", "log_s", "archive_s", "total_s", "pmem_read_GB", "pmem_write_GB", "w_amp"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		for _, v := range []graphone.Variant{graphone.VariantD, graphone.VariantP} {
			s, m, err := newGraphOne(edges, ds.NumVertices(), cfg, v, false, 0)
			if err != nil {
				return Table{}, err
			}
			m.ResetStats()
			rep, err := s.Ingest(edges)
			if err != nil {
				return Table{}, err
			}
			st := m.TotalStats()
			t.Rows = append(t.Rows, []string{ds.Name, v.String(), secs(rep.LogNs), secs(rep.ArchiveNs),
				secs(rep.TotalNs()), gb(st.MediaReadBytes()), gb(st.MediaWriteBytes()),
				fmt.Sprintf("%.2f", st.WriteAmplification())})
		}
	}
	t.Notes = append(t.Notes,
		"paper Fig.3: archiving dominates on PMEM; ~10x read and ~8.6x write amplification",
		"logging is sequential and stays cheap on both media")
	return t, nil
}

// ---- Fig. 4: NUMA effect and thread sweep ----

func fig4(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig4", Title: "GraphOne NUMA binding and archive-thread scaling (FS)",
		Columns: []string{"dataset", "system", "config", "ingest_s"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		run := func(v graphone.Variant, bind bool, threads int) (int64, error) {
			s, _, err := newGraphOne(edges, ds.NumVertices(), cfg, v, bind, threads)
			if err != nil {
				return 0, err
			}
			rep, err := s.Ingest(edges)
			if err != nil {
				return 0, err
			}
			return rep.TotalNs(), nil
		}
		// 4a: normal vs bound to one node.
		for _, v := range []graphone.Variant{graphone.VariantD, graphone.VariantP} {
			for _, bind := range []bool{false, true} {
				ns, err := run(v, bind, 0)
				if err != nil {
					return Table{}, err
				}
				cfgName := "normal"
				if bind {
					cfgName = "bind-1-node"
				}
				t.Rows = append(t.Rows, []string{ds.Name, v.String(), cfgName, secs(ns)})
			}
		}
		// 4b: thread sweep.
		for _, v := range []graphone.Variant{graphone.VariantD, graphone.VariantP} {
			for _, th := range []int{1, 2, 4, 8, 16, 32} {
				ns, err := run(v, false, th)
				if err != nil {
					return Table{}, err
				}
				t.Rows = append(t.Rows, []string{ds.Name, v.String(), fmt.Sprintf("threads=%d", th), secs(ns)})
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper Fig.4a: NUMA effects much larger for GraphOne-P than GraphOne-D",
		"paper Fig.4b: GraphOne-P degrades past 8 archiving threads")
	return t, nil
}

// ---- Fig. 11: ingestion, non-volatile systems ----

func fig11(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig11", Title: "Ingestion time, non-volatile systems",
		Columns: []string{"dataset", "GraphOne-P", "GraphOne-N", "XPGraph", "XPGraph-B", "XP_speedup_vs_GoP"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		var goP, goN, xp, xpB int64
		{
			s, _, err := newGraphOne(edges, ds.NumVertices(), cfg, graphone.VariantP, false, 0)
			if err != nil {
				return Table{}, err
			}
			rep, err := s.Ingest(edges)
			if err != nil {
				return Table{}, err
			}
			goP = rep.TotalNs()
		}
		{
			s, _, err := newGraphOne(edges, ds.NumVertices(), cfg, graphone.VariantN, false, 0)
			if err != nil {
				return Table{}, err
			}
			rep, err := s.Ingest(edges)
			if err != nil {
				return Table{}, err
			}
			goN = rep.TotalNs()
		}
		for _, battery := range []bool{false, true} {
			b := battery
			s, _, err := newXPGraph(edges, ds.NumVertices(), cfg, func(o *core.Options) { o.Battery = b })
			if err != nil {
				return Table{}, err
			}
			rep, err := s.Ingest(edges)
			if err != nil {
				return Table{}, err
			}
			if cfg.Tracer != nil {
				// Complete the pipeline so the trace shows the full
				// logging/buffering/flushing split (Fig. 3a); the
				// reported ingestion time above is already captured.
				if err := s.FlushAllVbufs(); err != nil {
					return Table{}, err
				}
			}
			if battery {
				xpB = rep.TotalNs()
			} else {
				xp = rep.TotalNs()
			}
		}
		t.Rows = append(t.Rows, []string{ds.Name, secs(goP), secs(goN), secs(xp), secs(xpB), ratio(goP, xp)})
	}
	t.Notes = append(t.Notes,
		"paper Fig.11: XPGraph 3.01-3.95x faster than GraphOne-P; GraphOne-N an order of magnitude slower; XPGraph-B up to 23% over XPGraph")
	return t, nil
}

// ---- Fig. 12: ingestion, volatile systems ----

func fig12(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig12", Title: "Ingestion time, volatile systems (DO=DRAM-only, MM=memory mode)",
		Columns: []string{"dataset", "GraphOne-D(DO)", "XPGraph-D(DO)", "GraphOne-D(MM)", "XPGraph-D(MM)"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		cell := func(run func() (int64, error)) string {
			ns, err := run()
			if err != nil {
				if errors.Is(err, mem.ErrOOM) {
					return "OOM"
				}
				return "err:" + err.Error()
			}
			return secs(ns)
		}
		goDO := cell(func() (int64, error) {
			s, _, err := newGraphOne(edges, ds.NumVertices(), cfg, graphone.VariantD, false, 0)
			if err != nil {
				return 0, err
			}
			rep, err := s.Ingest(edges)
			return rep.TotalNs(), err
		})
		xpDO := cell(func() (int64, error) {
			s, _, err := newXPGraph(edges, ds.NumVertices(), cfg, func(o *core.Options) {
				o.Medium = core.MediumDRAM
				o.NUMA = core.NUMANone
				o.PoolMax = ScaledDRAMBytes / 2
			})
			if err != nil {
				return 0, err
			}
			rep, err := s.Ingest(edges)
			return rep.TotalNs(), err
		})
		goMM := cell(func() (int64, error) {
			s, _, err := newGraphOne(edges, ds.NumVertices(), cfg, graphone.VariantMM, false, 0)
			if err != nil {
				return 0, err
			}
			rep, err := s.Ingest(edges)
			return rep.TotalNs(), err
		})
		xpMM := cell(func() (int64, error) {
			s, _, err := newXPGraph(edges, ds.NumVertices(), cfg, func(o *core.Options) {
				o.Medium = core.MediumMemoryMode
				o.NUMA = core.NUMANone
			})
			if err != nil {
				return 0, err
			}
			rep, err := s.Ingest(edges)
			return rep.TotalNs(), err
		})
		t.Rows = append(t.Rows, []string{ds.Name, goDO, xpDO, goMM, xpMM})
	}
	t.Notes = append(t.Notes,
		"paper Fig.12: large graphs OOM on DRAM-only; XPGraph-D up to 73% (DO) / 76% (MM) faster than GraphOne-D",
		fmt.Sprintf("scaled machine DRAM = %d MB", ScaledDRAMBytes>>20))
	return t, nil
}

// ---- Fig. 13: PMEM traffic ----

func fig13(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig13", Title: "PMEM read/write data amount during ingestion (GB)",
		Columns: []string{"dataset", "system", "read_GB", "write_GB"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		type sys struct {
			name string
			run  func() (*xpsim.Machine, error)
		}
		systems := []sys{
			{"GraphOne-P", func() (*xpsim.Machine, error) {
				s, m, err := newGraphOne(edges, ds.NumVertices(), cfg, graphone.VariantP, false, 0)
				if err != nil {
					return nil, err
				}
				m.ResetStats()
				_, err = s.Ingest(edges)
				return m, err
			}},
			{"GraphOne-N", func() (*xpsim.Machine, error) {
				s, m, err := newGraphOne(edges, ds.NumVertices(), cfg, graphone.VariantN, false, 0)
				if err != nil {
					return nil, err
				}
				m.ResetStats()
				_, err = s.Ingest(edges)
				return m, err
			}},
			{"XPGraph", func() (*xpsim.Machine, error) {
				s, m, err := newXPGraph(edges, ds.NumVertices(), cfg)
				if err != nil {
					return nil, err
				}
				m.ResetStats()
				_, err = s.Ingest(edges)
				return m, err
			}},
			{"XPGraph-B", func() (*xpsim.Machine, error) {
				s, m, err := newXPGraph(edges, ds.NumVertices(), cfg, func(o *core.Options) { o.Battery = true })
				if err != nil {
					return nil, err
				}
				m.ResetStats()
				_, err = s.Ingest(edges)
				return m, err
			}},
		}
		for _, sy := range systems {
			m, err := sy.run()
			if err != nil {
				return Table{}, err
			}
			st := m.TotalStats()
			t.Rows = append(t.Rows, []string{ds.Name, sy.name, gb(st.MediaReadBytes()), gb(st.MediaWriteBytes())})
		}
	}
	t.Notes = append(t.Notes,
		"paper Fig.13: XPGraph reads 2.29-4.17x and writes 2.02-3.44x less than GraphOne-P; XPGraph-B further -31%/-47%")
	return t, nil
}

// ---- Fig. 14: query performance ----

func fig14(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig14", Title: "Query performance (seconds of simulated time)",
		Columns: []string{"dataset", "system", "1hop_s", "bfs_s", "pagerank_s", "cc_s"}}
	// 2^24 one-hop queries in the paper; scaled by 1/1024 -> 2^14, then
	// by the edge scale.
	oneHopCount := int(float64(1<<14) * cfg.EdgeScale)
	if oneHopCount < 256 {
		oneHopCount = 256
	}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		type prep struct {
			name string
			view view.Source
			lat  *xpsim.LatencyModel
		}
		var preps []prep
		{
			s, m, err := newGraphOne(edges, ds.NumVertices(), cfg, graphone.VariantP, false, 0)
			if err != nil {
				return Table{}, err
			}
			if _, err := s.Ingest(edges); err != nil {
				return Table{}, err
			}
			preps = append(preps, prep{"GraphOne-P", s, &m.Lat})
		}
		{
			s, m, err := newXPGraph(edges, ds.NumVertices(), cfg)
			if err != nil {
				return Table{}, err
			}
			if _, err := s.Ingest(edges); err != nil {
				return Table{}, err
			}
			preps = append(preps, prep{"XPGraph", s, &m.Lat})
		}
		for _, p := range preps {
			e := analytics.NewEngine(p.view, p.lat, cfg.QueryThreads)
			oh := e.OneHop(oneHopCount, 0xBEEF)
			var bfsNs int64
			for _, root := range bfsRoots(ds) {
				bfsNs += e.BFS(root).SimNs
			}
			pr := e.PageRank(10)
			cc := e.CC()
			t.Rows = append(t.Rows, []string{ds.Name, p.name,
				secs(oh.SimNs), secs(bfsNs), secs(pr.SimNs), secs(cc.SimNs)})
		}
	}
	t.Notes = append(t.Notes,
		"paper Fig.14: 1-hop comparable (within ~30%); XPGraph up to 4.46x (BFS), 3.57x (PageRank), 4.23x (CC) faster")
	return t, nil
}

// bfsRoots returns the paper's "three random roots" deterministically.
func bfsRoots(ds gen.Dataset) []graph.VID {
	n := ds.NumVertices()
	return []graph.VID{1 % n, (n / 3) % n, (2*n/3 + 1) % n}
}

// ---- Fig. 15: recovery ----

func fig15(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig15", Title: "Recovery time after a crash (seconds of simulated time)",
		Columns: []string{"dataset", "GraphOne_rebuild_s", "XPGraph_recover_s", "speedup"}}
	// GraphOne recovers by re-archiving with threshold 2^27 (paper);
	// scaled by 1/1024 -> 2^17.
	const rebuildThreshold = 1 << 17
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		goMachine := newMachine(int64(len(edges)))
		_, goNs, err := graphone.Rebuild(goMachine, pmemHeap(goMachine), graphone.Options{
			Name: "rb", NumVertices: ds.NumVertices(), ArchiveThreads: cfg.ArchiveThreads,
			AdjBytes: adjBytesFor(int64(len(edges)), 1), Variant: graphone.VariantP,
		}, edges, rebuildThreshold)
		if err != nil {
			return Table{}, err
		}
		// XPGraph: ingest, crash (drop DRAM state), recover.
		s, m, err := newXPGraph(edges, ds.NumVertices(), cfg)
		if err != nil {
			return Table{}, err
		}
		if _, err := s.Ingest(edges); err != nil {
			return Table{}, err
		}
		heap := s.Heap()
		opts := s.Options()
		s = nil // crash: all DRAM state gone
		_, rec, err := core.Recover(m, heap, nil, opts)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{ds.Name, secs(goNs), secs(rec.SimNs), ratio(goNs, rec.SimNs)})
	}
	t.Notes = append(t.Notes,
		"paper Fig.15: XPGraph recovers 5.20-9.47x faster than GraphOne's re-archiving")
	return t, nil
}

// ---- Fig. 16: fixed buffer sweep ----

func fig16(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "YW")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig16", Title: "Fixed per-vertex buffer sizes: ingest time and DRAM demand",
		Columns: []string{"dataset", "buf_bytes", "ingest_s", "vbuf_peak_MB"}}
	// The DRAM cap is scaled so the paper's OOM point (512 B buffers on
	// YahooWeb) falls in the same place against this layout: 256 B
	// buffers (~88 MB of buffers + ~96 MB vertex metadata) fit, 512 B
	// (~176 MB of buffers) do not.
	const fig16DRAM = 240 << 20
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		for _, bufBytes := range []int64{0, 8, 16, 32, 64, 128, 256, 512} {
			bb := bufBytes
			budget := mem.NewBudget(fig16DRAM)
			m := newMachine(int64(len(edges)))
			h := pmemHeap(m)
			o := core.Options{Name: "f16", NumVertices: ds.NumVertices(),
				ArchiveThreads: cfg.ArchiveThreads, NUMA: core.NUMASubgraph,
				PoolBulk: 4 << 20, // fine-grained bulks so footprint tracks demand
				AdjBytes: adjBytesFor(int64(len(edges)), m.Sockets)}
			if bb == 0 {
				o.Buffer = core.BufferNone
			} else {
				o.Buffer = core.BufferFixed
				o.MinBufBytes, o.MaxBufBytes = bb, bb
			}
			s, err := core.New(m, h, budget, o)
			if err != nil {
				return Table{}, err
			}
			rep, err := s.Ingest(edges)
			if err != nil {
				if errors.Is(err, mem.ErrOOM) {
					t.Rows = append(t.Rows, []string{ds.Name, fmt.Sprint(bb), "OOM", "OOM"})
					continue
				}
				return Table{}, err
			}
			if rep.PoolFallbacks > 0 {
				// The pool hit the DRAM budget mid-run; the store
				// degraded to direct writes where the paper's system
				// would have failed its allocation — report the OOM.
				t.Rows = append(t.Rows, []string{ds.Name, fmt.Sprint(bb), "OOM", "OOM"})
				continue
			}
			t.Rows = append(t.Rows, []string{ds.Name, fmt.Sprint(bb),
				secs(rep.TotalNs()), mb(s.Pool().Peak())})
		}
	}
	t.Notes = append(t.Notes,
		"paper Fig.16: larger fixed buffers reduce ingest time but inflate DRAM; 512 B OOMs on YahooWeb")
	return t, nil
}

// ---- Fig. 17: hierarchical buffer sweep ----

func fig17(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "YW")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig17", Title: "Hierarchical buffers (16B..max) vs best fixed buffers",
		Columns: []string{"dataset", "config", "ingest_s", "vbuf_peak_MB"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		run := func(name string, o core.Options) error {
			m := newMachine(int64(len(edges)))
			h := pmemHeap(m)
			o.Name = "f17"
			o.NumVertices = ds.NumVertices()
			o.ArchiveThreads = cfg.ArchiveThreads
			o.NUMA = core.NUMASubgraph
			o.AdjBytes = adjBytesFor(int64(len(edges)), m.Sockets)
			s, err := core.New(m, h, nil, o)
			if err != nil {
				return err
			}
			if _, err := s.Ingest(edges); err != nil {
				return err
			}
			t.Rows = append(t.Rows, []string{ds.Name, name,
				secs(s.Report().TotalNs()), mb(s.Pool().Peak())})
			return nil
		}
		if err := run("fixed-128", core.Options{Buffer: core.BufferFixed, MinBufBytes: 128, MaxBufBytes: 128}); err != nil {
			return Table{}, err
		}
		if err := run("fixed-256", core.Options{Buffer: core.BufferFixed, MinBufBytes: 256, MaxBufBytes: 256}); err != nil {
			return Table{}, err
		}
		for _, max := range []int64{64, 128, 256, 512} {
			if err := run(fmt.Sprintf("hier-16..%d", max),
				core.Options{Buffer: core.BufferHierarchical, MinBufBytes: 16, MaxBufBytes: max}); err != nil {
				return Table{}, err
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper Fig.17: hierarchical 16..256B matches the best fixed setting's speed at less than half the DRAM")
	return t, nil
}

// ---- Fig. 18: NUMA strategies ----

func fig18(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS", "YW", "K29")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig18", Title: "NUMA accessing strategies: ingest and BFS",
		Columns: []string{"dataset", "strategy", "ingest_s", "bfs_s"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		for _, mode := range []struct {
			name string
			m    core.NUMAMode
		}{{"no-bind", core.NUMANone}, {"NUMA-bind-OIG", core.NUMAOutIn}, {"NUMA-bind-SG", core.NUMASubgraph}} {
			md := mode.m
			s, m, err := newXPGraph(edges, ds.NumVertices(), cfg, func(o *core.Options) { o.NUMA = md })
			if err != nil {
				return Table{}, err
			}
			rep, err := s.Ingest(edges)
			if err != nil {
				return Table{}, err
			}
			e := analytics.NewEngine(s, &m.Lat, cfg.QueryThreads)
			if md == core.NUMANone {
				e.SetBinding(false)
			}
			var bfsNs int64
			for _, root := range bfsRoots(ds) {
				bfsNs += e.BFS(root).SimNs
			}
			t.Rows = append(t.Rows, []string{ds.Name, mode.name, secs(rep.TotalNs()), secs(bfsNs)})
		}
	}
	t.Notes = append(t.Notes,
		"paper Fig.18: binding improves ingest 5-23%; sub-graph binding improves BFS up to 54% while out/in-graph binding can hurt queries")
	return t, nil
}

// ---- Fig. 19: pool size sweep ----

func fig19(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS", "YW", "K29")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig19", Title: "Vertex-buffer pool size sweep (paper GB -> scaled MB)",
		Columns: []string{"dataset", "pool_MB", "ingest_s", "flush_alls"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		for _, poolMB := range []int64{1, 2, 4, 8, 16, 32, 64, 96} {
			pm := poolMB << 20
			s, _, err := newXPGraph(edges, ds.NumVertices(), cfg, func(o *core.Options) {
				o.PoolMax = pm
				o.PoolBulk = pm / int64(2*cfg.ArchiveThreads)
			})
			if err != nil {
				return Table{}, err
			}
			rep, err := s.Ingest(edges)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{ds.Name, fmt.Sprint(poolMB), secs(rep.TotalNs()),
				fmt.Sprint(rep.FlushAlls)})
		}
	}
	t.Notes = append(t.Notes,
		"paper Fig.19: big gains up to 16 GB (scaled: MB), flat beyond 32; oversized pools cost nothing (lazy allocation)")
	return t, nil
}

// ---- Fig. 20: XPGraph thread sweep ----

func fig20(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig20", Title: "XPGraph archive-thread sweep (FS)",
		Columns: []string{"dataset", "threads", "ingest_s"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		for _, th := range []int{1, 2, 4, 8, 16, 32, 48, 64, 95} {
			th := th
			s, _, err := newXPGraph(edges, ds.NumVertices(), cfg, func(o *core.Options) { o.ArchiveThreads = th })
			if err != nil {
				return Table{}, err
			}
			rep, err := s.Ingest(edges)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{ds.Name, fmt.Sprint(th), secs(rep.TotalNs())})
		}
	}
	t.Notes = append(t.Notes,
		"paper Fig.20: XPGraph keeps scaling with archive threads, peaking at the machine's 95 threads")
	return t, nil
}

// ---- Table II: dataset statistics ----

func table2(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "table2", Title: "Datasets (scaled ~1/1024 stand-ins of Table II)",
		Columns: []string{"dataset", "paper_V", "paper_E", "V", "E", "bin_MB", "deg1-2_pct"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		h := gen.DegreeHistogram(edges, ds.NumVertices())
		nonZero := h[1] + h[2] + h[3] + h[4]
		pct := 0.0
		if nonZero > 0 {
			pct = 100 * float64(h[1]) / float64(nonZero)
		}
		t.Rows = append(t.Rows, []string{ds.Name, ds.PaperV, ds.PaperE,
			fmt.Sprint(ds.NumVertices()), fmt.Sprint(len(edges)),
			mb(int64(len(edges)) * graph.EdgeBytes), fmt.Sprintf("%.1f", pct)})
	}
	t.Notes = append(t.Notes, "paper §III-C: vertices with degree 1-2 exceed 40% of non-zero vertices in real graphs")
	return t, nil
}

// ---- Table III: memory usage ----

func table3(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "table3", Title: "Memory usage of XPGraph (MB; paper Table III is GB at 1024x scale)",
		Columns: []string{"dataset", "meta_dram_MB", "vbuf_dram_MB", "input_MB", "elog_MB", "pblk_MB"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		s, _, err := newXPGraph(edges, ds.NumVertices(), cfg)
		if err != nil {
			return Table{}, err
		}
		if _, err := s.Ingest(edges); err != nil {
			return Table{}, err
		}
		u := s.MemUsage()
		t.Rows = append(t.Rows, []string{ds.Name, mb(u.MetaDRAM), mb(u.VbufDRAM),
			mb(int64(len(edges)) * graph.EdgeBytes), mb(u.ElogPMEM), mb(u.PblkPMEM)})
	}
	t.Notes = append(t.Notes,
		"paper Table III: DRAM usage is limited and tunable; PMEM holds input, 8GB elog (scaled 8MB) and adjacency blocks")
	return t, nil
}

// ---- Extensions beyond the paper's figures ----

// ablation isolates each XPGraph technique's contribution by disabling
// them one at a time — the design-choice ablation DESIGN.md calls for.
func ablation(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "ablation", Title: "XPGraph technique ablation (ingest time)",
		Columns: []string{"dataset", "config", "ingest_s", "pmem_write_GB"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		run := func(name string, f xpOpt) error {
			s, m, err := newXPGraph(edges, ds.NumVertices(), cfg, f)
			if err != nil {
				return err
			}
			m.ResetStats()
			rep, err := s.Ingest(edges)
			if err != nil {
				return err
			}
			st := m.TotalStats()
			t.Rows = append(t.Rows, []string{ds.Name, name, secs(rep.TotalNs()), gb(st.MediaWriteBytes())})
			return nil
		}
		cases := []struct {
			name string
			f    xpOpt
		}{
			{"full", func(o *core.Options) {}},
			{"no-proactive-flush", func(o *core.Options) { o.DisableProactiveFlush = true }},
			{"fixed-64B-buffers", func(o *core.Options) { o.Buffer = core.BufferFixed; o.MinBufBytes = 64; o.MaxBufBytes = 64 }},
			{"no-buffering", func(o *core.Options) { o.Buffer = core.BufferNone }},
			{"no-numa-binding", func(o *core.Options) { o.NUMA = core.NUMANone }},
		}
		for _, c := range cases {
			if err := run(c.name, c.f); err != nil {
				return Table{}, err
			}
		}
	}
	t.Notes = append(t.Notes,
		"extension experiment: each row disables one technique of §III; 'no-buffering' approximates GraphOne's write path inside XPGraph")
	return t, nil
}

// extSSD measures the SSD-supported XPGraph prototype (§V-F future work):
// the same workload on ample PMEM vs a PMEM arena one-eighth the size
// with SSD overflow.
func extSSD(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "ext-ssd", Title: "SSD-supported XPGraph (PMEM-overflow prototype)",
		Columns: []string{"dataset", "config", "ingest_s", "bfs_s", "ssd_MB"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		need := adjBytesFor(int64(len(edges)), 2)
		run := func(name string, adjBytes, overflow int64) error {
			s, m, err := newXPGraph(edges, ds.NumVertices(), cfg, func(o *core.Options) {
				o.AdjBytes = adjBytes
				o.SSDOverflow = overflow
			})
			if err != nil {
				return err
			}
			rep, err := s.Ingest(edges)
			if err != nil {
				return err
			}
			e := analytics.NewEngine(s, &m.Lat, cfg.QueryThreads)
			bfs := e.BFS(bfsRoots(ds)[0])
			t.Rows = append(t.Rows, []string{ds.Name, name, secs(rep.TotalNs()),
				secs(bfs.SimNs), mb(s.SSDBytes())})
			return nil
		}
		if err := run("pmem-only", need, 0); err != nil {
			return Table{}, err
		}
		// An arena far below the flushed-adjacency footprint forces
		// most blocks onto the SSD.
		small := int64(len(edges))/4 + (16 << 10)
		if err := run("small-pmem+ssd", small, 4*need); err != nil {
			return Table{}, err
		}
	}
	t.Notes = append(t.Notes,
		"extension experiment: graphs larger than PMEM keep working with cold adjacency blocks on NVMe")
	return t, nil
}

// extHotCold isolates the buffer-as-cache effect behind Fig. 14's query
// wins (§V-C): the same queries on a hot store (vertex buffers resident
// after ingest) and a cold one (all buffers flushed to PMEM).
func extHotCold(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "ext-hotcold", Title: "Query cost with hot vs flushed vertex buffers",
		Columns: []string{"dataset", "state", "1hop_s", "bfs_s", "pmem_read_GB"}}
	oneHopCount := int(float64(1<<14) * cfg.EdgeScale)
	if oneHopCount < 256 {
		oneHopCount = 256
	}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		s, m, err := newXPGraph(edges, ds.NumVertices(), cfg)
		if err != nil {
			return Table{}, err
		}
		if _, err := s.Ingest(edges); err != nil {
			return Table{}, err
		}
		e := analytics.NewEngine(s, &m.Lat, cfg.QueryThreads)
		measure := func(state string) {
			before := m.SnapshotStats()
			oh := e.OneHop(oneHopCount, 0xBEEF)
			var bfsNs int64
			for _, root := range bfsRoots(ds) {
				bfsNs += e.BFS(root).SimNs
			}
			delta := m.SnapshotStats().Sub(before)
			t.Rows = append(t.Rows, []string{ds.Name, state,
				secs(oh.SimNs), secs(bfsNs), gb(delta.MediaReadBytes())})
		}
		measure("hot-buffers")
		if err := s.FlushAllVbufs(); err != nil {
			return Table{}, err
		}
		measure("flushed")
	}
	t.Notes = append(t.Notes,
		"extension experiment: resident vertex buffers serve recent neighbors from DRAM (§III-B note, §V-C)")
	return t, nil
}

// extEvolving runs a deletion-heavy update stream (adds + 15% deletes of
// live edges) through both PMEM systems — the evolving-graph shape of the
// paper's title that the bulk-load figures do not exercise.
func extEvolving(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "ext-evolving", Title: "Mixed add/delete stream (15% deletions)",
		Columns: []string{"dataset", "system", "ingest_s", "speedup"}}
	for _, ds := range dss {
		n := int64(float64(ds.Edges) * cfg.EdgeScale)
		if n < 1024 {
			n = 1024
		}
		updates := gen.Evolving(ds.Scale, n, 0.15, ds.Seed^0xDE1)
		var goNs int64
		{
			s, _, err := newGraphOne(updates, ds.NumVertices(), cfg, graphone.VariantP, false, 0)
			if err != nil {
				return Table{}, err
			}
			rep, err := s.Ingest(updates)
			if err != nil {
				return Table{}, err
			}
			goNs = rep.TotalNs()
			t.Rows = append(t.Rows, []string{ds.Name, "GraphOne-P", secs(goNs), "-"})
		}
		{
			s, _, err := newXPGraph(updates, ds.NumVertices(), cfg)
			if err != nil {
				return Table{}, err
			}
			rep, err := s.Ingest(updates)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{ds.Name, "XPGraph", secs(rep.TotalNs()), ratio(goNs, rep.TotalNs())})
		}
	}
	t.Notes = append(t.Notes,
		"extension experiment: deletions are logged records like adds, so the XPLine-friendly advantage carries over")
	return t, nil
}
