package cluster

import (
	"repro/internal/graph"
)

// The typed write path of the cluster (DESIGN.md §13). Typed batches are
// committed synchronously on each owner shard — not queued through the
// async pipeline — because a typed edge's adjacency record and its label
// record must land in the same lock window, or a reader could see the
// edge with a stale label. The deliberate tradeoff is that typed writes
// pay per-batch lock latency instead of pipeline batching; mixed
// workloads keep the plain async path for their untyped edges. Apart
// from the queue, a typed batch takes the plain path's every step: the
// same admission check (down, draining, open breaker), the same split,
// and the same commit step, whose media failures feed the breaker.
//
// Routing follows the plain path exactly: a typed edge lives — adjacency
// and label both — with its source's owner shard, and a vertex property
// lives with the vertex's owner. Replicas receive labels and properties
// in the same shipped entry as the edges they ride with, so a follower's
// view converges typed-for-typed with its leader.

// RegisterLabel assigns one cluster-wide label id for name: shard 0's
// store assigns it (durable before this returns), every other shard
// applies the identical (id, name) def, and every replica receives it
// via log shipping. Registering an existing name returns its id. The
// def joins the ship stream without a snapshot publication: it changes
// no adjacency, so no epoch moves.
//
// Registration is refused while any shard is down or shutting down: a
// missed broadcast would leave that partition resolving the name to
// nothing after it comes back, and label registration is rare enough
// that fail-closed beats a repair protocol.
func (c *Cluster) RegisterLabel(name string) (uint16, error) {
	for _, sh := range c.shards {
		if err := sh.live(); err != nil {
			return 0, &ShardError{Shard: sh.id, Err: err}
		}
	}
	var id uint16
	for i, sh := range c.shards {
		sh.mu.Lock()
		var err error
		if i == 0 {
			// Shard 0 assigns the id: the one store mutation of the
			// cluster that is not a shipped entry's applyEntry.
			id, err = sh.store.RegisterLabel(name)
		}
		e := shipEntry{epoch: sh.pipe.Epoch(), typed: true, defs: []labelDef{{id: id, name: name}}}
		if i > 0 {
			_, err = applyEntry(sh.store, &e)
		}
		var msg shipMsg
		if err == nil {
			msg = sh.recordShipLocked(e)
		}
		sh.mu.Unlock()
		if err != nil {
			return 0, &ShardError{Shard: i, Err: err}
		}
		sh.dispatch(msg)
	}
	return id, nil
}

// IngestTyped routes one typed batch synchronously: edges[i] carries
// labels[i] (default label when the labels slice is short), props are
// vertex-property writes. Each owner shard commits its part — adjacency,
// labels, and properties in one entry — and ships it to its followers.
// Per-shard atomic like Ingest: a refusing or failing shard is named and
// the parts routed elsewhere still land.
func (c *Cluster) IngestTyped(edges []graph.Edge, labels []uint16, props []graph.PropSet) (IngestResult, error) {
	parts := c.split(edges, labels, props, true)
	defer release(parts)
	return c.commitAll(parts)
}
