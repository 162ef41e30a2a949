package main

import (
	"repro/internal/gen"
	"repro/internal/graph"
)

// mix64 is the splitmix64 finalizer: the benchmark's seed expander and
// the per-neighbor hash of msHash.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rng is a seeded splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 { r.s += 0x9E3779B97F4A7C15; return mix64(r.s) }

// msHash is an order-independent hash of a neighbor multiset: its size
// and the sum of its members' hashes. Two lists with equal msHash are
// the same multiset except with negligible probability, so a server's
// answer is checked in one pass without sorting it.
type msHash struct {
	n   int
	sum uint64
}

func (h *msHash) add(x uint32) { h.n++; h.sum += mix64(uint64(x)) }

func hashOf(nbrs []uint32) msHash {
	var h msHash
	for _, x := range nbrs {
		h.add(x)
	}
	return h
}

// streamNbr is one stream edge of a source vertex, tagged with the
// index of the batch that carried it.
type streamNbr struct {
	dst   uint32
	batch int32
}

// refGraph is the benchmark's own reference: the multiset adjacency of
// the preload plus the stream (the store keeps duplicate edges).
type refGraph struct {
	numV    int
	owner   func(graph.VID) int
	pre     [][]uint32
	stream  [][]streamNbr
	inFinal []int
	// shardBatches[s] lists, in order, the stream batches that carry at
	// least one edge owned by shard s: the j-th publication after the
	// preload on shard s made exactly shardBatches[s][:j] readable.
	shardBatches [][]int
}

func newRef(numV int, preload []graph.Edge, batches [][]graph.Edge, shards int, owner func(graph.VID) int) *refGraph {
	r := &refGraph{
		numV:         numV,
		owner:        owner,
		pre:          make([][]uint32, numV),
		stream:       make([][]streamNbr, numV),
		inFinal:      make([]int, numV),
		shardBatches: make([][]int, shards),
	}
	for _, e := range preload {
		r.pre[e.Src] = append(r.pre[e.Src], e.Dst)
		r.inFinal[e.Dst]++
	}
	for bi, b := range batches {
		touched := make([]bool, shards)
		for _, e := range b {
			r.stream[e.Src] = append(r.stream[e.Src], streamNbr{dst: e.Dst, batch: int32(bi)})
			r.inFinal[e.Dst]++
			touched[owner(e.Src)] = true
		}
		for s, t := range touched {
			if t {
				r.shardBatches[s] = append(r.shardBatches[s], bi)
			}
		}
	}
	return r
}

// allBatches is the per-shard bound under which every stream batch is
// readable; noBatches the one under which only the preload is.
func (r *refGraph) allBatches() []int {
	b := make([]int, len(r.shardBatches))
	for i := range b {
		b[i] = 1 << 30
	}
	return b
}

func (r *refGraph) noBatches() []int { return make([]int, len(r.shardBatches)) }

// bounds converts an epoch vector into per-shard exclusive stream batch
// bounds: shard s has published epochs[s]-base[s] stream parts. ok is
// false when the vector cannot be explained by the stream.
func (r *refGraph) bounds(epochs, base []uint64) (upTo []int, ok bool) {
	if len(epochs) != len(r.shardBatches) {
		return nil, false
	}
	upTo = make([]int, len(epochs))
	for s, e := range epochs {
		if e < base[s] {
			return nil, false
		}
		applied := e - base[s]
		switch {
		case applied == 0:
		case int(applied) > len(r.shardBatches[s]):
			return nil, false
		default:
			upTo[s] = r.shardBatches[s][applied-1] + 1
		}
	}
	return upTo, true
}

// visit calls fn for every out-neighbor of v readable under upTo.
func (r *refGraph) visit(v graph.VID, upTo []int, fn func(uint32)) {
	if int(v) >= r.numV {
		return
	}
	for _, nb := range r.pre[v] {
		fn(nb)
	}
	bound := upTo[r.owner(v)]
	for _, s := range r.stream[v] {
		if int(s.batch) < bound {
			fn(s.dst)
		}
	}
}

// hashAt is the expected answer hash of v's out-neighbors under upTo.
func (r *refGraph) hashAt(v graph.VID, upTo []int) msHash {
	var h msHash
	r.visit(v, upTo, h.add)
	return h
}

// khopReached is the number of distinct vertices other than root within
// k out-hops under upTo — what analytics.KHop reports as reached.
func (r *refGraph) khopReached(root graph.VID, k int, upTo []int) int64 {
	if int(root) >= r.numV {
		return 0
	}
	seen := make([]bool, r.numV)
	seen[root] = true
	frontier := []graph.VID{root}
	var reached int64
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		var next []graph.VID
		for _, v := range frontier {
			r.visit(v, upTo, func(nb uint32) {
				if int(nb) < r.numV && !seen[nb] {
					seen[nb] = true
					next = append(next, graph.VID(nb))
				}
			})
		}
		reached += int64(len(next))
		frontier = next
	}
	return reached
}

// inputs is everything a run derives from its seed.
type inputs struct {
	preload []graph.Edge
	batches [][]graph.Edge
	// ops is the read sequence: each root is the source of a uniformly
	// drawn preload edge (degree-weighted, so hubs are hot); khop marks
	// the k=2 queries.
	ops []readOp
}

type readOp struct {
	root graph.VID
	khop bool
}

// makeInputs builds the preload (fixed: the TT catalog seed), the
// seed's edge stream and the seed's read sequence.
func makeInputs(p params, seed uint64, nOps int) inputs {
	in := inputs{preload: gen.RMAT(p.PreloadScale, p.PreloadEdges, p.PreloadSeed)}
	stream := gen.RMAT(p.PreloadScale, int64(p.Batches*p.BatchEdges), mix64(seed^0x5EED_57AE))
	for i := 0; i < p.Batches; i++ {
		in.batches = append(in.batches, stream[i*p.BatchEdges:(i+1)*p.BatchEdges])
	}
	g := rng{s: mix64(seed ^ 0x0EAD_5EED)}
	in.ops = make([]readOp, nOps)
	for i := range in.ops {
		e := in.preload[g.next()%uint64(len(in.preload))]
		in.ops[i] = readOp{root: e.Src, khop: g.next()%uint64(p.KHopEvery) == 0}
	}
	return in
}
