package chaostest

import (
	"flag"
	"testing"

	"repro/internal/difftest"
)

// Replay and scale knobs. A failing sweep prints the exact command to
// reproduce one schedule:
//
//	go test ./internal/chaostest/ -run TestChaosDifferential -chaostest.seed=0x<seed>
//
// The nightly workflow widens the sweep and the workload with
// -chaostest.sweep / -chaostest.edges and collects failing seeds in the
// $DIFFTEST_SEED_LOG file.
var (
	seedFlag  = flag.Uint64("chaostest.seed", 0, "replay exactly one chaos schedule by seed (0 = run the sweep)")
	sweepFlag = flag.Int("chaostest.sweep", 4, "number of seeded schedules per sweep")
	edgesFlag = flag.Int("chaostest.edges", 2000, "plain edges per schedule")
)

// TestChaosDifferential runs seeded chaos schedules over a sharded
// cluster with replicas and requires exact convergence with a reference
// store once the chaos heals.
func TestChaosDifferential(t *testing.T) {
	if testing.Short() && *seedFlag == 0 && *sweepFlag > 2 {
		*sweepFlag = 2
	}
	// Fixed base: the default sweep is deterministic in CI; the nightly
	// varies it by widening the sweep, not the base.
	seeds := difftest.Seeds(0xC4A0_5EED, *sweepFlag)
	if *seedFlag != 0 {
		seeds = []uint64{*seedFlag}
	}
	const replay = "go test ./internal/chaostest/ -run TestChaosDifferential -chaostest.seed=%#x"
	difftest.RunSeeds(t, seeds, replay, func(t *testing.T, seed uint64) error {
		res, err := Run(Options{Seed: seed, PlainEdges: *edgesFlag})
		if err == nil {
			t.Logf("seed %#x converged: %v", seed, res)
		}
		return err
	})
}
