package main

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// changedFields lists the leaf fields (dotted paths) where a and b
// differ, recursing through nested structs.
func changedFields(path string, a, b reflect.Value) []string {
	if a.Kind() == reflect.Struct {
		var out []string
		for i := 0; i < a.NumField(); i++ {
			out = append(out, changedFields(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))...)
		}
		return out
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		return []string{path}
	}
	return nil
}

// parse runs parseFlags on a fresh, quiet flag set and returns it too.
func parse(args []string) (config, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("xpgraphd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c, err := parseFlags(fs, args)
	return c, fs, err
}

func mustParse(t *testing.T, args []string) config {
	t.Helper()
	c, _, err := parse(args)
	if err != nil {
		t.Fatalf("parseFlags(%q): %v", args, err)
	}
	return c
}

// TestParseFlagsEachFlagOneField pins the daemon's flag wiring: every
// flag, set to a non-default value, changes exactly the one config field
// it names, and nothing else. base holds the flags a case needs to pass
// validation; it is parsed alone as the reference.
func TestParseFlagsEachFlagOneField(t *testing.T) {
	cases := []struct {
		flag, value string
		base        []string
		field       string
	}{
		{"addr", ":9999", nil, ".addr"},
		{"vertices", "1234", nil, ".store.NumVertices"},
		{"shards", "3", nil, ".shards"},
		{"replicas", "2", nil, ".cluster.Replicas"},
		{"pmem-gb", "8", nil, ".pmemBytes"},
		{"threads", "3", nil, ".store.ArchiveThreads"},
		{"qthreads", "5", nil, ".server.QueryThreads"},
		{"queue-cap", "100", nil, ".cluster.QueueCap"},
		{"batch-edges", "10", nil, ".cluster.BatchEdges"},
		{"linger", "3ms", nil, ".cluster.Linger"},
		{"adaptive", "true", nil, ".cluster.Adaptive"},
		{"adaptive-target", "5ms", nil, ".cluster.AdaptiveTarget"},
		{"flush-every", "1s", nil, ".cluster.FlushEvery"},
		{"request-timeout", "1s", nil, ".server.RequestTimeout"},
		{"shutdown-timeout", "1s", nil, ".shutdownTimeout"},
		{"media-guard", "true", nil, ".store.MediaGuard"},
		{"varint-adj", "true", nil, ".store.CompressedAdj"},
		{"props", "false", nil, ".store.Props"},
		{"prop-log-mb", "4", nil, ".store.PropLogBytes"},
		{"archive-ssd-mb", "4", nil, ".store.ArchiveSSDBytes"},
		{"scrub-every", "1s", []string{"-media-guard"}, ".cluster.ScrubEvery"},
		{"ue-decay", "0.01", []string{"-media-guard"}, ".ueDecay"},
		{"chaos", "seed=7,drop=0.1", []string{"-replicas=1"}, ".cluster.Transport"},
		{"preload", "FS", nil, ".preload"},
		{"scale", "0.5", nil, ".scale"},
		{"trace", "trace.json", nil, ".tracePath"},
	}

	// Every defined flag has a case, so a new flag cannot skip the check.
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.flag] = true
	}
	_, fs, err := parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			t.Errorf("flag -%s has no wiring case", f.Name)
		}
		delete(covered, f.Name)
	})
	for name := range covered {
		t.Errorf("case -%s names no defined flag", name)
	}

	for _, tc := range cases {
		t.Run(tc.flag, func(t *testing.T) {
			base := mustParse(t, tc.base)
			got := mustParse(t, append(append([]string(nil), tc.base...), "-"+tc.flag+"="+tc.value))
			changed := changedFields("", reflect.ValueOf(base), reflect.ValueOf(got))
			if len(changed) != 1 || changed[0] != tc.field {
				t.Fatalf("-%s=%s changed %v, want exactly [%s]", tc.flag, tc.value, changed, tc.field)
			}
		})
	}
}

// TestParseFlagsRejects pins the flag combinations the daemon refuses
// instead of silently ignoring.
func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-ue-decay=0.01"}, "-ue-decay requires -media-guard"},
		{[]string{"-scrub-every=1s"}, "-scrub-every requires -media-guard"},
		{[]string{"-shards=0"}, "-shards must be >= 1"},
		{[]string{"-chaos=seed=7,drop=0.1"}, "-chaos requires -replicas"},
		{[]string{"-replicas=1", "-chaos=nonsense"}, ""},
	} {
		_, _, err := parse(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFlags(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
