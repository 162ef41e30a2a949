package crashtest

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/xpsim"
)

// TestRunStreamErrorKeepsResult pins the error contract of the run
// entry points: a failure before recovery — here a log larger than the
// simulated PMEM, which the store refuses to build — still returns a
// non-nil Result, so callers can format its fields next to the error.
func TestRunStreamErrorKeepsResult(t *testing.T) {
	cfg := Config{Name: "too-big", LogCapacity: 1 << 40}
	res, err := RunStream(cfg, []graph.Edge{{Src: 1, Dst: 2}}, xpsim.FaultPlan{})
	if err == nil {
		t.Fatal("RunStream built a store whose log exceeds the machine")
	}
	if res == nil {
		t.Fatalf("RunStream returned a nil Result with error %v", err)
	}
	if res.Crashed || res.DurableEdges != 0 {
		t.Fatalf("pre-recovery failure reported a crash or durable edges: %+v", res)
	}
	t.Logf("error: %v (crash: %q)", err, res.CrashDesc)
}
