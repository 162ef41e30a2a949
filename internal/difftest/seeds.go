package difftest

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/rng"
)

// seedLogEnv names the environment variable pointing at the failing-seed
// log: when set, every failing seed appends its replay command there.
const seedLogEnv = "DIFFTEST_SEED_LOG"

// Seeds is a sweep of n seeds drawn from base: rng.Draw(base+i).
func Seeds(base uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Draw(base + uint64(i))
	}
	return seeds
}

// RunSeeds runs fn once per seed as subtest seed_<seed>. A failing seed
// fails its subtest with the exact replay command — replay is a format
// with one %#x verb per use of the seed — and appends that command to
// the $DIFFTEST_SEED_LOG file.
func RunSeeds(t *testing.T, seeds []uint64, replay string, fn func(t *testing.T, seed uint64) error) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed_%#x", seed), func(t *testing.T) {
			if err := fn(t, seed); err != nil {
				cmd := fmt.Sprintf(replay, seed)
				logSeed(t, cmd)
				t.Fatalf("%v\nreplay: %s", err, cmd)
			}
		})
	}
}

func logSeed(t *testing.T, cmd string) {
	path := os.Getenv(seedLogEnv)
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("seed log: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintln(f, cmd)
}
