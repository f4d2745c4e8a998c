package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call across a layer boundary. Spans of one
// request share req; parent is the span that caused this one (0 for a
// request's root).
type span struct {
	id, parent, req uint64
	name            string
	start, end      int64 // nanoseconds since the recorder's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends. While capturing
// it also keeps every traced hop's request and response bodies, for
// replaying through the codecs afterwards.
type recorder struct {
	epoch     time.Time
	ids       atomic.Uint64
	capturing atomic.Bool
	mu        sync.Mutex
	spans     []span
	hops      []hop
}

// hop is one captured HTTP exchange of a traced request.
type hop struct {
	req      uint64
	name     string // the transport span's name
	query    url.Values
	reqType  string
	reqBody  []byte
	respType string
	respBody []byte
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open starts a span; close records it.
func (r *recorder) open(name string, parent, req uint64) span {
	return span{id: r.ids.Add(1), parent: parent, req: req, name: name, start: r.now()}
}

// openRoot starts the root span of a new request, identified by the
// root's own id.
func (r *recorder) openRoot(name string) span {
	s := r.open(name, 0, 0)
	s.req = s.id
	return s
}

func (r *recorder) close(s span) {
	s.end = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanRef is what crosses a boundary: the caller's span and request.
type spanRef struct{ id, req uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, s span) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id: s.id, req: s.req})
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// spanHeader carries a spanRef across an HTTP hop. Only the benchmark's
// own transports add it; the program never reads it.
const spanHeader = "X-Perfbench-Span"

func (ref spanRef) header() string {
	return strconv.FormatUint(ref.req, 10) + "." + strconv.FormatUint(ref.id, 10)
}

func parseSpanHeader(v string) (spanRef, bool) {
	a, b, ok := strings.Cut(v, ".")
	if !ok {
		return spanRef{}, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	return spanRef{id: id, req: req}, err1 == nil && err2 == nil
}

// transport wraps an http.RoundTripper with one span per round trip,
// from the call until the response body is closed, parented on the span
// in the request's context. Requests without one (health probes) pass
// through unrecorded.
func (r *recorder) transport(base http.RoundTripper, name string) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		ref, ok := spanFrom(req.Context())
		if !ok {
			return base.RoundTrip(req)
		}
		s := r.open(name, ref.id, ref.req)
		out := req.Clone(req.Context())
		out.Header.Set(spanHeader, spanRef{id: s.id, req: s.req}.header())
		resp, err := base.RoundTrip(out)
		if err != nil {
			r.close(s)
			return nil, err
		}
		body := &spanBody{ReadCloser: resp.Body, rec: r, s: s}
		if r.capturing.Load() {
			body.hop = &hop{req: s.req, name: name, query: req.URL.Query(),
				reqType: req.Header.Get("Content-Type"), respType: resp.Header.Get("Content-Type")}
			if req.GetBody != nil {
				if rc, err := req.GetBody(); err == nil {
					body.hop.reqBody, _ = io.ReadAll(rc) // an in-memory reader cannot fail
				}
			}
			body.ReadCloser = struct {
				io.Reader
				io.Closer
			}{io.TeeReader(resp.Body, &body.buf), resp.Body}
		}
		resp.Body = body
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// spanBody ends its span when the reader closes the response body, and
// files the captured hop if there is one.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
	hop  *hop
	buf  bytes.Buffer
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.rec.close(b.s)
		if b.hop != nil {
			b.hop.respBody = b.buf.Bytes()
			b.rec.mu.Lock()
			b.rec.hops = append(b.rec.hops, *b.hop)
			b.rec.mu.Unlock()
		}
	})
	return err
}

// middleware wraps a server's handler with one span per request that
// arrived with a span header, and hands the span on through the request
// context so the server's own outgoing requests link to it.
func (r *recorder) middleware(h http.Handler, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ref, ok := parseSpanHeader(req.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, req)
			return
		}
		s := r.open(name, ref.id, ref.req)
		h.ServeHTTP(w, req.WithContext(withSpan(req.Context(), s)))
		r.close(s)
	})
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, kids []span) int64 {
	return s.dur() - covered(s.start, s.end, kids)
}

// tree indexes a run's spans by parent.
type tree struct {
	roots []span
	kids  map[uint64][]span
}

func buildTree(spans []span, root string) tree {
	t := tree{kids: map[uint64][]span{}}
	for _, s := range spans {
		if s.parent == 0 {
			if s.name == root {
				t.roots = append(t.roots, s)
			}
			continue
		}
		t.kids[s.parent] = append(t.kids[s.parent], s)
	}
	sort.Slice(t.roots, func(i, j int) bool { return t.roots[i].start < t.roots[j].start })
	return t
}

// walk visits s and every descendant.
func (t tree) walk(s span, visit func(span)) {
	visit(s)
	for _, k := range t.kids[s.id] {
		t.walk(k, visit)
	}
}

// blockingSelf sums self times along the blocking path below s: s
// itself, then the chain of children the result waited for — the child
// that finished last, the one that finished last before it started, and
// so on — each followed down recursively. Sequential children all
// block; of parallel ones only the slowest does.
func (t tree) blockingSelf(s span) int64 {
	kids := append([]span(nil), t.kids[s.id]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].end > kids[j].end })
	total := selfTime(s, kids)
	bound := s.end
	for _, k := range kids {
		if k.end <= bound {
			total += t.blockingSelf(k)
			bound = k.start
		}
	}
	return total
}

// perRoot applies f to every root and returns the values in milliseconds.
func (t tree) perRoot(f func(root span) int64) []float64 {
	out := make([]float64, len(t.roots))
	for i, r := range t.roots {
		out[i] = float64(f(r)) / 1e6
	}
	return out
}

// chromeEvent is one trace_event record ("X" = complete event, "M" =
// metadata), the format nx -trace writes.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChrome writes spans as a Chrome trace_event document with one
// thread per span name; meta lands in the process-name record.
func writeChrome(w io.Writer, label string, spans []span, meta map[string]any) error {
	args := map[string]any{"name": label}
	for k, v := range meta {
		args[k] = v
	}
	events := []chromeEvent{{Name: "process_name", Phase: "M", Args: args}}
	tids := map[string]int{}
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	for _, s := range sorted {
		tid, ok := tids[s.name]
		if !ok {
			tid = len(tids) + 1
			tids[s.name] = tid
			events = append(events, chromeEvent{Name: "thread_name", Phase: "M", TID: tid,
				Args: map[string]any{"name": s.name}})
		}
		events = append(events, chromeEvent{
			Name: s.name, Phase: "X", TS: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3, TID: tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
