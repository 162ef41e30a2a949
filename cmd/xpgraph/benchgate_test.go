package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// The benchgate table tests: every committed BENCH_6..9.json report
// passes its own gates against itself, and each floor and each
// baseline-regression branch fails, with its own message, on a copy of
// the report mutated to cross exactly that line.

type report = map[string]any

// mutation edits one committed report document in place.
type mutation struct {
	name string
	edit func(reports []report)
	msg  string // the failure message the gate must print
}

func set(i int, path string, val float64) func([]report) {
	return func(rs []report) {
		r := rs[i]
		keys := strings.Split(path, ".")
		for _, k := range keys[:len(keys)-1] {
			r = r[k].(report)
		}
		r[keys[len(keys)-1]] = val
	}
}

var gates = []struct {
	file string
	gate func(raw, baseRaw []byte, tol float64) error
	muts []mutation
}{
	{"BENCH_6.json", gateWire, []mutation{
		{"bin speedup floor", set(0, "bin_speedup", 1.9), "binary ingest decode only 1.90x JSON (need >= 2x)"},
		{"density floor", set(0, "varint.edges_per_line", 60), "(need >= 1.5x)"},
		{"missing media writes", set(0, "fixed.media_write_bytes_per_edge", 0), "missing media write traffic"},
		{"density regression", set(0, "varint.edges_per_line", 70), "varint density regressed"},
		{"gain regression", set(0, "density_gain", 1.5), "density gain regressed"},
		{"speedup collapse", set(0, "bin_speedup", 8), "binary/JSON decode ratio collapsed"},
	}},
	{"BENCH_7.json", gateCluster, []mutation{
		{"4-shard speedup floor", set(2, "speedup", 1.9), "4-shard ingest only 1.90x a single shard (need >= 2x)"},
		{"shard count floor", func(rs []report) { rs[2]["shards"] = 3.0 }, "sweep tops out at 3 shards (need >= 4)"},
		{"missing throughput", set(2, "medges_per_sec", 0), "missing throughput measurement"},
		{"scaling regression", set(2, "speedup", 5), "scaling regressed"},
		{"throughput regression", set(1, "medges_per_sec", 25), "ingest throughput regressed"},
	}},
	{"BENCH_8.json", gateSoak, []mutation{
		{"adaptive p99 floor", set(1, "read_p99_us", 50), "adaptive admission is not >= 1.2x better"},
		{"static SLO", set(0, "violations", 1), "static run violated the scenario SLO"},
		{"adaptive SLO", set(1, "violations", 2), "adaptive run violated the scenario SLO"},
		{"never tuned", set(1, "tune_decreases", 0), "adaptive run never tuned"},
		{"degenerate run", set(0, "reads", 0), "degenerate run"},
		{"advantage regression", set(1, "read_p99_us", 40), "adaptive p99 advantage regressed"},
	}},
	{"BENCH_9.json", gateProp, []mutation{
		{"typed ingest floor", set(0, "typed_ingest_ratio", 0.7), "typed ingest only 0.700x plain throughput (need >= 0.8x)"},
		{"pushdown floor", set(0, "media_read_savings", 1.9), "(need >= 2x)"},
		{"degenerate media", set(0, "filtered_media_read_lines", 0), "degenerate media measurement"},
		{"vacuous savings", set(0, "filtered_reached", 0), "filtered traversal reached nothing"},
		{"missing ingest", set(0, "plain_ingest_medges_per_sim_sec", 0), "missing ingest throughput"},
		{"savings regression", set(0, "media_read_savings", 7), "pushdown savings regressed"},
		{"typed ratio regression", set(0, "typed_ingest_ratio", 0.8), "typed ingest ratio regressed"},
	}},
}

// runGate runs one gate with stdout and stderr captured.
func runGate(t *testing.T, gate func(raw, baseRaw []byte, tol float64) error, raw, base []byte) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "gate")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = f, f
	gerr := gate(raw, base, 0.05)
	os.Stdout, os.Stderr = stdout, stderr
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), gerr
}

func TestBenchgateCommittedReportsPass(t *testing.T) {
	for _, g := range gates {
		t.Run(g.file, func(t *testing.T) {
			raw, err := os.ReadFile("../../" + g.file)
			if err != nil {
				t.Fatal(err)
			}
			if out, err := runGate(t, g.gate, raw, raw); err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
		})
	}
}

func TestBenchgateFloorsFail(t *testing.T) {
	for _, g := range gates {
		base, err := os.ReadFile("../../" + g.file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range g.muts {
			t.Run(g.file+"/"+m.name, func(t *testing.T) {
				var doc map[string]any
				if err := json.Unmarshal(base, &doc); err != nil {
					t.Fatal(err)
				}
				var reports []report
				for _, r := range doc["reports"].([]any) {
					reports = append(reports, r.(report))
				}
				m.edit(reports)
				raw, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				out, err := runGate(t, g.gate, raw, base)
				if err == nil {
					t.Fatalf("gate passed a report mutated across %q:\n%s", m.name, out)
				}
				if !strings.Contains(out, "benchgate FAIL") || !strings.Contains(out, m.msg) {
					t.Fatalf("gate failed without %q:\n%s", m.msg, out)
				}
			})
		}
	}
}
