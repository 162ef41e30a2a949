package xpsim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestSeededDrawsGolden pins every seeded draw of the simulator — the
// tear geometry of a killed media write, the UE decay rolls, and the
// scrambled contents of a line lost to a UE — to recorded values, so a
// change to the random source cannot silently move a crash sweep or a
// media differential.
func TestSeededDrawsGolden(t *testing.T) {
	h := fnv.New64a()
	f := &Faults{}
	for _, mode := range []TearMode{TearPrefix, TearWords} {
		f.plan = FaultPlan{Tear: mode, Seed: 7}
		for ev := int64(0); ev < 8; ev++ {
			h.Write(f.tearLine(make([]byte, 256), bytes.Repeat([]byte{0xff}, 256), ev))
		}
	}
	m := NewMachine(2, 1<<20, DefaultLatency())
	faults := m.TrackFaults()
	faults.SetDecay(0.3, 11)
	for i := 0; i < 64; i++ {
		ue, _, fresh := faults.checkRead(i%2, int64(i%5))
		fmt.Fprint(h, ue, fresh)
	}
	d := m.Device(1)
	d.scrambleLine(3)
	line := make([]byte, XPLineSize)
	d.store.ReadAt(line, 3*XPLineSize)
	h.Write(line)
	if got, want := h.Sum64(), uint64(0x6a7927101a2d1b2b); got != want {
		t.Fatalf("seeded draws hash = %#x, want %#x", got, want)
	}
}
