package crashtest

import (
	"flag"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/rng"
	"repro/internal/xpsim"
)

// -crashtest.seed reruns the randomized schedule suite from a specific
// base seed; a failure prints the command that replays its one seed.
var seedFlag = flag.Uint64("crashtest.seed", rng.Gamma, "base seed for randomized crash schedules")

// randomSchedule derives one workload config + fault plan from a seed.
// Everything — graph shape, deletion ratio, chunking, compaction cadence,
// NUMA mode, kill point, tear geometry — is a pure function of the seed.
func randomSchedule(seed uint64, mediaWrites int64) (Config, xpsim.FaultPlan) {
	r := seed
	next := func(mod uint64) uint64 {
		r = rng.Draw(r)
		if mod == 0 {
			return r
		}
		return r % mod
	}
	cfg := Config{
		Name:             "rand",
		Scale:            5 + int(next(3)),       // 32..128 vertices
		Edges:            200 + int64(next(400)), // 200..599 updates
		Seed:             next(0),
		LogCapacity:      128 << next(2),      // 128..512
		ArchiveThreshold: 16 << next(2),       // 16..64
		Chunk:            50 + int(next(100)), // 50..149
		CompactEvery:     int(next(4)),        // 0 = never
		NUMA:             []core.NUMAMode{core.NUMANone, core.NUMAOutIn, core.NUMASubgraph}[next(3)],
	}
	if next(4) == 0 {
		cfg.DelRatio = 0.1 + float64(next(20))/100
	}
	switch next(4) {
	case 0:
		cfg.Varint = true
	case 1:
		cfg.VarintFromRecovery = true
	}
	plan := xpsim.FaultPlan{
		Tear: []xpsim.TearMode{xpsim.TearNone, xpsim.TearPrefix, xpsim.TearWords}[next(3)],
		Seed: next(0),
	}
	if mediaWrites > 0 {
		if next(5) == 0 {
			// Site kill instead of a media-write kill.
			sites := []string{"buffer:staged", "buffer:marked", "flush:drained",
				"flush:acked", "flush:barrier", "flush:committed"}
			plan.KillAtSite = sites[next(uint64(len(sites)))]
			plan.KillAtSiteHit = 1 + int64(next(4))
		} else {
			plan.KillAtMediaWrite = 1 + int64(next(uint64(mediaWrites)))
		}
	}
	return cfg, plan
}

// TestCrashRandomizedSchedules probes and then crash-verifies a batch of
// seed-derived schedules, one subtest per seed. The first schedule is
// the base seed itself, so a failing seed printed by any sweep replays
// alone with the printed command.
func TestCrashRandomizedSchedules(t *testing.T) {
	iters := 40
	if testing.Short() {
		iters = 8
	}
	base := *seedFlag
	t.Logf("base seed %#x (%d schedules)", base, iters)
	seeds := append([]uint64{base}, difftest.Seeds(base+1, iters-1)...)
	const replay = "go test ./internal/crashtest/ -run 'TestCrashRandomizedSchedules/seed_%#[1]x$' -crashtest.seed=%#[1]x"
	difftest.RunSeeds(t, seeds, replay, func(t *testing.T, seed uint64) error {
		cfg, _ := randomSchedule(seed, 0)
		probe, err := Probe(cfg)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		cfg, plan := randomSchedule(seed, probe.MediaWrites)
		res, err := Run(cfg, plan)
		if err != nil {
			return fmt.Errorf("%w (plan %+v)", err, plan)
		}
		if plan.KillAtMediaWrite > 0 && !res.Crashed {
			return fmt.Errorf("plan %+v never fired (%d media writes)", plan, res.MediaWrites)
		}
		return nil
	})
}

// TestRandomScheduleGolden pins the seed → schedule expansion to a
// recorded hash, so a printed failing seed keeps replaying the same
// schedule.
func TestRandomScheduleGolden(t *testing.T) {
	h := fnv.New64a()
	for seed := uint64(1); seed <= 8; seed++ {
		cfg, plan := randomSchedule(seed, 1000)
		fmt.Fprint(h, cfg, plan, ";")
	}
	if got, want := h.Sum64(), uint64(0x3d1a1cc977c9fbe5); got != want {
		t.Fatalf("schedule hash = %#x, want %#x", got, want)
	}
}
