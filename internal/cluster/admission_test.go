package cluster_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/xpsim"
)

// typedServer serves a started typed cluster (media-guarded, fault
// tracking armed) over HTTP and returns shard 0's machine for fault
// injection.
func typedServer(t *testing.T, shards, replicas int, cfg cluster.Config) (*cluster.Cluster, *server.Server, *httptest.Server, *xpsim.Machine) {
	t.Helper()
	var m0 *xpsim.Machine
	newStore := func(name string) (*core.Store, error) {
		m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
		m.TrackFaults()
		if m0 == nil {
			m0 = m
		}
		return core.New(m, pmem.NewHeap(m), nil, core.Options{
			Name: name, NumVertices: 1 << 10, LogCapacity: 1 << 14,
			ArchiveThreshold: 1 << 8, ArchiveThreads: 2, MediaGuard: true, Props: true})
	}
	stores := make([]*core.Store, shards)
	for i := range stores {
		var err error
		if stores[i], err = newStore(fmt.Sprintf("adm%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Replicas = replicas
	cfg.ReplicaFactory = func(shardID, replica int) (*core.Store, error) {
		return newStore(fmt.Sprintf("adm%d-r%d", shardID, replica))
	}
	cl, err := cluster.New(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewCluster(cl, server.Config{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return cl, srv, ts, m0
}

// post sends body to the route and returns the status, the error
// envelope's code, and the Retry-After header.
func post(t *testing.T, url, ctype string, body []byte) (int, string, string) {
	t.Helper()
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb struct {
		Error struct{ Code string } `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	return resp.StatusCode, eb.Error.Code, resp.Header.Get("Retry-After")
}

// TestShutdownRefusesTypedWrites: after a graceful Shutdown a typed
// write is refused like a plain one — ShardError{ErrShuttingDown}, 503
// shutting_down — and lands nowhere: no epoch moves and every follower
// stays running, caught up with its leader's ship stream. So is a label
// registration, which would otherwise ship to closed followers.
func TestShutdownRefusesTypedWrites(t *testing.T) {
	cl, srv, ts, _ := typedServer(t, 2, 1, cluster.Config{})
	follows, err := cl.RegisterLabel("follows")
	if err != nil {
		t.Fatal(err)
	}
	edges := []graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5}}
	labels := []uint16{follows, follows, follows, follows}
	props := []graph.PropSet{{V: 1, Key: 1, Val: 7}}
	if _, err := cl.IngestTyped(edges, labels, props); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	before := cl.EpochVector()

	var se *cluster.ShardError
	if _, err := cl.IngestTyped(edges, labels, props); !errors.As(err, &se) || !errors.Is(err, ingest.ErrShuttingDown) {
		t.Fatalf("typed write after Shutdown = %v, want ShardError{ErrShuttingDown}", err)
	}
	if _, err := cl.RegisterLabel("blocks"); !errors.As(err, &se) || !errors.Is(err, ingest.ErrShuttingDown) {
		t.Fatalf("RegisterLabel after Shutdown = %v, want ShardError{ErrShuttingDown}", err)
	}
	body := ingest.EncodeTypedBatch(edges, labels, props)
	if code, ecode, _ := post(t, ts.URL+"/v1/ingest/bin", ingest.ContentTypeBatch, body); code != http.StatusServiceUnavailable || ecode != "shutting_down" {
		t.Fatalf("typed POST after Shutdown: %d %q, want 503 shutting_down", code, ecode)
	}
	if code, ecode, _ := post(t, ts.URL+"/v1/labels", "application/json", []byte(`{"name":"blocks"}`)); code != http.StatusServiceUnavailable || ecode != "shutting_down" {
		t.Fatalf("label POST after Shutdown: %d %q, want 503 shutting_down", code, ecode)
	}

	if after := cl.EpochVector(); !slices.Equal(after, before) {
		t.Fatalf("refused writes moved the epochs: %v -> %v", before, after)
	}
	for i := 0; i < cl.Shards(); i++ {
		sh := cl.Shard(i)
		for ri, r := range sh.Replicas() {
			if r.State() != "running" || r.NextSeq() != sh.ShipSeq()+1 {
				t.Fatalf("shard %d replica %d stranded: state %s, next seq %d, leader ship seq %d",
					i, ri, r.State(), r.NextSeq(), sh.ShipSeq())
			}
		}
	}
}

// TestBreakerShedsTypedWrites: typed writes share the plain path's
// circuit breaker. Their media-write failures feed it, and once it is
// open a typed write is shed up front with a BreakerOpenError — 503
// circuit_open with a Retry-After over HTTP.
func TestBreakerShedsTypedWrites(t *testing.T) {
	cl, _, ts, m := typedServer(t, 1, 0, cluster.Config{BreakerThreshold: 2, BreakerCooldown: time.Hour})
	follows, err := cl.RegisterLabel("follows")
	if err != nil {
		t.Fatal(err)
	}
	edges := []graph.Edge{{Src: 3, Dst: 4}}
	labels := []uint16{follows}
	m.Faults().FailNode(1)

	// Two failed typed writes trip the breaker (threshold 2).
	for i := 0; i < 2; i++ {
		var me *xpsim.MediaError
		if _, err := cl.IngestTyped(edges, labels, nil); !errors.As(err, &me) {
			t.Fatalf("typed write %d on a dead node = %v, want a media error", i, err)
		}
	}
	var boe *cluster.BreakerOpenError
	if _, err := cl.IngestTyped(edges, labels, nil); !errors.As(err, &boe) || boe.Wait <= 0 {
		t.Fatalf("typed write with the breaker open = %v, want BreakerOpenError", err)
	}
	body := ingest.EncodeTypedBatch(edges, labels, nil)
	code, ecode, retry := post(t, ts.URL+"/v1/ingest/bin", ingest.ContentTypeBatch, body)
	if code != http.StatusServiceUnavailable || ecode != "circuit_open" || retry == "" {
		t.Fatalf("typed POST with the breaker open: %d %q Retry-After %q, want 503 circuit_open", code, ecode, retry)
	}
}
