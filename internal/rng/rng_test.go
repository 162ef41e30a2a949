package rng

import "testing"

// The values below were recorded from the splitmix64 copies this
// package replaced; every seeded dataset, fault schedule and soak replay
// depends on them staying put.

func TestMixGolden(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0},
		{1, 0x5692161d100b05e5},
		{0xdeadbeef, 0x4e062702ec929eea},
	} {
		if got := Mix(c.in); got != c.want {
			t.Errorf("Mix(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestStreamGolden(t *testing.T) {
	s := Stream(42)
	for i, want := range []uint64{0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52, 0x581ce1ff0e4ae394} {
		if got := s.Next(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	if got := s.Float(); got != 0.03803016854024621 {
		t.Fatalf("Float = %v, want 0.03803016854024621", got)
	}
	if got := s.Uint64n(1000); got != 62 {
		t.Fatalf("Uint64n(1000) = %d, want 62", got)
	}
}

func TestOneOffDrawIsFirstStreamValue(t *testing.T) {
	for _, seed := range []uint64{0, 7, 1 << 63} {
		s := Stream(seed)
		if a, b := Draw(seed), s.Next(); a != b {
			t.Fatalf("seed %#x: Draw = %#x, stream draw %#x", seed, a, b)
		}
	}
}

func TestFloatRange(t *testing.T) {
	s := Stream(1)
	for i := 0; i < 10000; i++ {
		if f := s.Float(); f < 0 || f >= 1 {
			t.Fatalf("Float = %v outside [0,1)", f)
		}
	}
}
