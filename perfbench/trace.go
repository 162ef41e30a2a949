package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/analytics"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/xpsim"
)

// span is one host-clock interval around a call into a layer. Spans of
// one request share Req; Parent is the span that caused this one.
type span struct {
	ID, Parent, Req int64
	Name            string
	Lane            int
	Start, End      time.Time
}

// tracer keeps every span of a traced episode in memory.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// open is a started span.
type open struct {
	tr *tracer
	s  span
}

// begin starts a span; on a nil tracer it returns nil, whose end is a
// no-op, so the layer-path helpers also run untraced.
func (tr *tracer) begin(name string, req, parent int64, lane int) *open {
	if tr == nil {
		return nil
	}
	return &open{tr: tr, s: span{ID: tr.ids.Add(1), Parent: parent, Req: req, Name: name, Lane: lane, Start: time.Now()}}
}

// endAt closes the span at t and records it.
func (o *open) endAt(t time.Time) {
	if o == nil {
		return
	}
	o.s.End = t
	o.tr.record(o.s)
}

func (o *open) end() { o.endAt(time.Now()) }

func (tr *tracer) record(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (tr *tracer) add(name string, req, parent int64, lane int, start, end time.Time) {
	tr.record(span{ID: tr.ids.Add(1), Parent: parent, Req: req, Name: name, Lane: lane, Start: start, End: end})
}

// childTime sums, per span id, the durations of the span's children.
// Callers hold tr.mu.
func (tr *tracer) childTime() map[int64]time.Duration {
	child := map[int64]time.Duration{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End.Sub(s.Start)
		}
	}
	return child
}

// times returns, per span name, every span's self time (its duration
// minus its children's) and its total duration.
func (tr *tracer) times() (self, total map[string]dist) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	child := tr.childTime()
	self, total = map[string]dist{}, map[string]dist{}
	for _, s := range tr.spans {
		d := s.End.Sub(s.Start)
		sd, td := self[s.Name], total[s.Name]
		sd.add(d - child[s.ID])
		td.add(d)
		self[s.Name], total[s.Name] = sd, td
	}
	return self, total
}

// perRequest returns, for every request that has a span named require,
// the weighted sum of the self times of its spans: a span named n adds
// weight[n] times its self time.
func (tr *tracer) perRequest(require string, weight map[string]float64) dist {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	child := tr.childTime()
	has := map[int64]bool{}
	sum := map[int64]float64{}
	for _, s := range tr.spans {
		if s.Name == require {
			has[s.Req] = true
		}
		if w, ok := weight[s.Name]; ok {
			sum[s.Req] += w * float64(s.End.Sub(s.Start)-child[s.ID])
		}
	}
	var d dist
	for req := range has {
		d.add(time.Duration(sum[req]))
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON (open it in
// Perfetto or chrome://tracing). Each lane is a thread; args carry the
// request and parent ids.
func (tr *tracer) writeChrome(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var t0 time.Time
	for _, s := range tr.spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range tr.spans {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"req":%d}}`,
			s.Name, s.Lane, float64(s.Start.Sub(t0).Nanoseconds())/1e3, float64(s.End.Sub(s.Start).Nanoseconds())/1e3,
			s.ID, s.Parent, s.Req)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Lanes of the Chrome trace.
const (
	laneWriter  = 1
	laneReader0 = 2 // readers use laneReader0 + client index
	laneLag     = 9
)

// spanHeader carries "req,parent,lane,path" from a traced request to
// the handler wrapper: the request's id, its HTTP span, its lane, and
// "real" or "layer".
const spanHeader = "X-Perfbench-Span"

// serveWrap serves traced requests. On the real path it times
// Server.ServeHTTP; on the layer path it performs the handler's work
// itself, calling each layer's public function in the order the handler
// does with a span around each call. Both answer the client over the
// same loopback connection, so transport is measured alike on both.
func (r *rig) serveWrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, hr *http.Request) {
		f := strings.Split(hr.Header.Get(spanHeader), ",")
		if len(f) != 4 {
			h.ServeHTTP(w, hr)
			return
		}
		req, _ := strconv.ParseInt(f[0], 10, 64)
		parent, _ := strconv.ParseInt(f[1], 10, 64)
		lane, _ := strconv.Atoi(f[2])
		route := routeOf(hr.URL.Path)
		if f[3] != "layer" {
			s := r.tr.begin("server.serve."+route, req, parent, lane)
			h.ServeHTTP(w, hr)
			s.end()
			return
		}
		s := r.tr.begin("server.layer."+route, req, parent, lane)
		defer s.end()
		var err error
		switch route {
		case "ingest":
			err = r.layerIngest(w, hr.Body, req, s.s.ID, lane)
		case "khop":
			var kr server.KHopRequest
			if err = json.NewDecoder(hr.Body).Decode(&kr); err == nil {
				err = r.layerKHop(w, r.tr, req, s.s.ID, lane, kr.Root)
			}
		default:
			var v uint64
			v, err = strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(hr.URL.Path, "/v1/vertices/"), "/out"), 10, 32)
			if err == nil {
				err = r.layerOut(w, r.tr, req, s.s.ID, lane, graph.VID(v))
			}
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

func routeOf(path string) string {
	switch {
	case strings.HasSuffix(path, "/ingest/bin"):
		return "ingest"
	case strings.HasSuffix(path, "/query/khop"):
		return "khop"
	default:
		return "1hop"
	}
}

// ---- the three operations, untraced or traced ----
//
// Both runs send every operation through the typed client. In a traced
// episode the client's transport is a spanTransport, and each operation
// opens a root span and hands its ids to that transport in the request
// context. Request n of a route is served by the real handler when n is
// even and by the layer path (serveWrap) when n is odd.

func (r *rig) ingest(batch []graph.Edge) (client.IngestResult, error) {
	req := r.tr.newReq()
	if r.tr != nil {
		// The typed client encodes inside the request, where no span can
		// reach; encoding the same batch just before, on its own, times it.
		enc := r.tr.begin("client.encode", req, 0, laneWriter)
		ingest.EncodeBatch(batch, false)
		enc.end()
	}
	ctx, root := r.request(req, "request.ingest", laneWriter)
	res, err := r.client.AddEdgesBinary(ctx, batch)
	root.end()
	if err == nil && r.lag != nil {
		r.lag <- lagProbe{req: req, at: time.Now(), epochs: res.EpochVector}
	}
	return res, err
}

func (r *rig) out(lane int, v graph.VID) (client.Neighbors, error) {
	ctx, root := r.request(r.tr.newReq(), "request.1hop", lane)
	defer root.end()
	return r.client.OutNeighbors(ctx, v)
}

func (r *rig) khop(lane int, v graph.VID) (client.KHopResult, error) {
	ctx, root := r.request(r.tr.newReq(), "request.khop", lane)
	defer root.end()
	return r.client.KHop(ctx, v, 2)
}

// newReq returns a fresh request id, or 0 on a nil tracer.
func (tr *tracer) newReq() int64 {
	if tr == nil {
		return 0
	}
	return tr.ids.Add(1)
}

// spanCtx carries a traced request's ids from the operation to the
// span transport.
type spanCtx struct {
	req, parent int64
	lane        int
}

type spanCtxKey struct{}

// request opens request req's root span and returns the context that
// carries it to the span transport. Untraced it returns the background
// context and a nil span.
func (r *rig) request(req int64, name string, lane int) (context.Context, *open) {
	root := r.tr.begin(name, req, 0, lane)
	if root == nil {
		return context.Background(), nil
	}
	return context.WithValue(context.Background(), spanCtxKey{}, spanCtx{req, root.s.ID, lane}), root
}

// spanTransport is the traced client's RoundTripper. It records an
// http.<route> span from the call to RoundTrip until the client closes
// the response body, and tells the handler wrapper, in spanHeader, the
// span to record the server span under and which path to serve. The
// http span's self time is the transport: net/http on both sides,
// loopback, scheduling and the client's streaming decode of the
// response, but none of the client's or the handler's own code.
type spanTransport struct {
	r    *rig
	base http.RoundTripper
}

func (t *spanTransport) RoundTrip(hreq *http.Request) (*http.Response, error) {
	sc, ok := hreq.Context().Value(spanCtxKey{}).(spanCtx)
	if !ok {
		return t.base.RoundTrip(hreq)
	}
	route := routeOf(hreq.URL.Path)
	n := &t.r.nRead
	if route == "ingest" {
		n = &t.r.nIngest
	}
	how := "real"
	if n.Add(1)%2 == 1 {
		how = "layer"
	}
	s := t.r.tr.begin("http."+route, sc.req, sc.parent, sc.lane)
	hreq = hreq.Clone(hreq.Context())
	hreq.Header.Set(spanHeader, fmt.Sprintf("%d,%d,%d,%s", sc.req, s.s.ID, sc.lane, how))
	resp, err := t.base.RoundTrip(hreq)
	if err != nil {
		s.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, s: s}
	return resp, nil
}

// spanBody ends the http span when the client closes the body.
type spanBody struct {
	io.ReadCloser
	s    *open
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.s.end)
	return err
}

// ---- the layer path: the handlers' calls, one span each ----

// layerIngest is handleIngestBin's path: decode the body, route it
// through the cluster, encode the response. The apply and queue-wait
// children of cluster.ingest come from the pipelines' own timing.
func (r *rig) layerIngest(w io.Writer, body io.Reader, req, parent int64, lane int) error {
	tr := r.tr
	dec := tr.begin("ingest.decode", req, parent, lane)
	edges, err := ingest.DecodeBatch(body, ingest.GetEdgeBuf(), r.cl.QueueCap())
	dec.end()
	if err != nil {
		return err
	}
	ci := tr.begin("cluster.ingest", req, parent, lane)
	res, err := r.cl.Ingest(edges, true)
	done := time.Now()
	ingest.PutEdgeBuf(edges)
	if err != nil {
		ci.endAt(done)
		return err
	}
	// The shards apply in parallel; the slowest one's write window ends
	// the call, and the rest of it waited in admission and the queue.
	var apply int64
	for i := 0; i < r.cl.Shards(); i++ {
		if ns := r.cl.Shard(i).PipeStats().LastBatchHostNs; ns > apply {
			apply = ns
		}
	}
	applyStart := done.Add(-time.Duration(apply))
	if applyStart.Before(ci.s.Start) {
		applyStart = ci.s.Start
	}
	tr.add("ingest.queue_wait", req, ci.s.ID, lane, ci.s.Start, applyStart)
	tr.add("ingest.apply", req, ci.s.ID, lane, applyStart, done)
	ci.endAt(done)
	enc := tr.begin("server.encode.ingest", req, parent, lane)
	defer enc.end()
	epoch := res.Epoch()
	return json.NewEncoder(w).Encode(server.IngestResponse{Accepted: res.Accepted, SimMs: float64(res.SimNs) / 1e6,
		Batches: res.Batches, Epoch: epoch, EpochVector: res.Epochs})
}

// layerOut is handleVertex's out path. tr may be nil.
func (r *rig) layerOut(w io.Writer, tr *tracer, req, parent int64, lane int, v graph.VID) error {
	a := tr.begin("cluster.acquire_view", req, parent, lane)
	cv := r.cl.AcquireView()
	a.end()
	defer func() {
		rel := tr.begin("cluster.release", req, parent, lane)
		cv.Release()
		rel.end()
	}()
	nb := tr.begin("view.nbrs_out", req, parent, lane)
	ctx := xpsim.NewCtx(cv.OutNode(v))
	nbrs, err := cv.NbrsOutChecked(ctx, v, nil)
	nb.end()
	if err != nil {
		return err
	}
	if nbrs == nil {
		nbrs = []uint32{}
	}
	enc := tr.begin("server.encode.1hop", req, parent, lane)
	defer enc.end()
	return json.NewEncoder(w).Encode(server.NeighborsResponse{Vertex: v, Neighbors: nbrs,
		SimUs: float64(ctx.Cost.Ns()) / 1e3, Epoch: cv.Epoch(), EpochVector: cv.EpochVector()})
}

// layerKHop is handleKHop's unfiltered path. tr may be nil.
func (r *rig) layerKHop(w io.Writer, tr *tracer, req, parent int64, lane int, v graph.VID) error {
	a := tr.begin("cluster.acquire_view", req, parent, lane)
	cv := r.cl.AcquireView()
	a.end()
	defer func() {
		rel := tr.begin("cluster.release", req, parent, lane)
		cv.Release()
		rel.end()
	}()
	k := tr.begin("analytics.khop", req, parent, lane)
	kr := analytics.NewEngine(cv, &r.cl.Shard(0).Store().Machine().Lat, queryThreads).KHop(v, 2)
	k.end()
	enc := tr.begin("server.encode.khop", req, parent, lane)
	defer enc.end()
	return json.NewEncoder(w).Encode(server.KHopResponse{Root: v, Reached: kr.Reached, PerHop: kr.PerHop,
		SimMs: float64(kr.SimNs) / 1e6, Epoch: cv.Epoch(), EpochVector: cv.EpochVector()})
}

// lagProbe asks the lag watcher to time how long after a synchronous
// ingest returned every replica reached the epochs it reported.
type lagProbe struct {
	req    int64
	at     time.Time
	epochs []uint64
}

// watchLag serves lag probes until r.lag is closed. A probe whose
// replicas do not catch up within a second is dropped unrecorded.
func (r *rig) watchLag(done chan<- struct{}) {
	defer close(done)
	for p := range r.lag {
		for !r.replicasAt(p.epochs) && time.Since(p.at) < time.Second {
			time.Sleep(50 * time.Microsecond)
		}
		if r.replicasAt(p.epochs) {
			r.tr.add("cluster.replica_lag", p.req, 0, laneLag, p.at, time.Now())
		}
	}
}
