package chaostest

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/chaos"
	"repro/internal/rng"
)

// TestDerivePlanGolden pins the seed → chaos-plan expansion to recorded
// values, so a failing seed printed by the sweep replays the same
// schedule after changes to the random source.
func TestDerivePlanGolden(t *testing.T) {
	links := []chaos.Link{{Shard: 0, Replica: 0}, {Shard: 1, Replica: 1}}
	h := fnv.New64a()
	for seed := uint64(1); seed <= 3; seed++ {
		p := derivePlan(seed, links, 512)
		fmt.Fprint(h, p.DropProb, p.DupProb, p.DelayProb, p.DelayMax, p.Partitions, rng.Draw(seed), ";")
	}
	if got, want := h.Sum64(), uint64(0xa6fe3d5977b046d7); got != want {
		t.Fatalf("derived plans hash = %#x, want %#x", got, want)
	}
}
