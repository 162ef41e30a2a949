package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// TestShipDrawsGolden pins the seeded draws of the ship path — chunk
// integrity tags and retry backoff jitter — to recorded values.
func TestShipDrawsGolden(t *testing.T) {
	h := fnv.New64a()
	sh := &Shard{id: 3, shipBackoff: time.Millisecond, shipBackoffMax: 64 * time.Millisecond}
	for seq := uint64(0); seq < 64; seq++ {
		fmt.Fprint(h, chunkID(int(seq%4), seq), sh.backoff(seq, int(1+seq%8)), ";")
	}
	if got, want := h.Sum64(), uint64(0x421e92fa4c7d15df); got != want {
		t.Fatalf("ship draws hash = %#x, want %#x", got, want)
	}
}
