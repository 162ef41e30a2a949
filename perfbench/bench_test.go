package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
)

// tiny is a few-second episode with every phase still exercised.
func tiny() params {
	p := full()
	p.Vertices = 1 << 12
	p.PMEMGB = 1
	p.PreloadScale = 10
	p.PreloadEdges = 20000
	p.BatchEdges = 512
	p.Batches = 12
	p.ReadOps = 400
	p.VerifyReads = 200
	p.WriteProbe = 6
	p.DegreeChecks = 32
	p.MixRate = 2000
	p.MinEpisodes = 1
	return p
}

// spec is the part of BENCHMARK.json the program must honour.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmokeEmitsEveryMetric runs every workload at tiny scale, untraced
// and traced, and checks that exactly the metrics BENCHMARK.json names
// are emitted, each with its unit, and that every answer was right.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			res, err := run(tiny(), w, 3, 0, traced, filepath.Join(t.TempDir(), "trace.json"), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", w, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// faulty wraps the server so that it drops the last neighbor of every
// 1-hop answer, or reports one vertex too many for every k-hop.
func faulty(dropNeighbor bool) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			switch {
			case dropNeighbor && strings.HasSuffix(r.URL.Path, "/out"):
				var nr server.NeighborsResponse
				if json.Unmarshal(body, &nr) == nil && len(nr.Neighbors) > 0 {
					nr.Neighbors = nr.Neighbors[:len(nr.Neighbors)-1]
					body, _ = json.Marshal(nr)
				}
			case !dropNeighbor && strings.HasSuffix(r.URL.Path, "/query/khop"):
				var kr server.KHopResponse
				if json.Unmarshal(body, &kr) == nil {
					kr.Reached++
					body, _ = json.Marshal(kr)
				}
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.Code)
			_, _ = io.Copy(w, bytes.NewReader(body))
		})
	}
}

// TestCatchesWrongAnswers plants a server that drops a neighbor, then
// one that miscounts a k-hop, and expects the correctness check to
// report both.
func TestCatchesWrongAnswers(t *testing.T) {
	for _, drop := range []bool{true, false} {
		b := newBench(tiny(), 5)
		b.wrap = faulty(drop)
		tl, err := b.untraced(wRead, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tl.failed == 0 || tl.failed == tl.refused {
			t.Errorf("dropNeighbor=%v: %d failed, %d refused: wrong answers went unnoticed", drop, tl.failed, tl.refused)
		}
	}
}

// TestSeedGivesSameInputs checks that a seed fixes the edge stream and
// the read sequence, and that another seed changes them.
func TestSeedGivesSameInputs(t *testing.T) {
	p := tiny()
	a, b, c := makeInputs(p, 9, 100), makeInputs(p, 9, 100), makeInputs(p, 10, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 9 gave two different inputs")
	}
	if reflect.DeepEqual(a.batches, c.batches) || reflect.DeepEqual(a.ops, c.ops) {
		t.Fatal("seeds 9 and 10 gave the same stream or read sequence")
	}
	if !reflect.DeepEqual(a.preload, c.preload) {
		t.Fatal("the preload must not depend on the seed")
	}
}
