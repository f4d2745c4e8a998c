package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/serve"
	"wavelethpc/internal/wavelet"
)

// perLayerMetrics lists every per-layer metric with its unit and whether
// higher is better, in BENCHMARK.json order. A layer that does no work
// on a workload reports 0.
var perLayerMetrics = []struct {
	name, unit string
	higher     bool
}{
	{"client.self_ms", "ms", false},
	{"proto.encode_raster_ms", "ms", false},
	{"proto.decode_raster_ms", "ms", false},
	{"proto.encode_pyramid_ms", "ms", false},
	{"proto.decode_pyramid_ms", "ms", false},
	{"proto.parse_ms", "ms", false},
	{"proto.wire_mb_per_image", "MB", false},
	{"image.pgm_write_ms", "ms", false},
	{"image.pgm_read_ms", "ms", false},
	{"transport.loopback_ms", "ms", false},
	{"serve.handler_ms", "ms", false},
	{"serve.do_ms", "ms", false},
	{"serve.decomposers_created", "count", false},
	{"serve.rejected", "count", false},
	{"gateway.self_ms", "ms", false},
	{"gateway.backend_ms", "ms", false},
	{"gateway.cache_hit_ratio", "ratio", true},
	{"gateway.cache_evictions_per_image", "count", false},
	{"gateway.attempts_per_request", "count", false},
	{"gateway.stripes_per_image", "count", false},
	{"gateway.halo_row_ratio", "ratio", false},
	{"wavelet.forward_ms", "ms", false},
	{"wavelet.lift_ms", "ms", false},
	{"wavelet.inverse_ms", "ms", false},
	{"wavelet.forward_gmac_per_s", "GMAC/s", true},
	{"core.parallel_forward_ms", "ms", false},
	{"core.parallel_inverse_ms", "ms", false},
	{"core.speedup_2w", "ratio", true},
	{"nx.dist_forward_ms", "ms", false},
	{"nx.dist_inverse_ms", "ms", false},
	{"nx.msgs_per_image", "count", false},
	{"nx.mb_per_image", "MB", false},
	{"nx.contended_msgs", "count", false},
	{"nx.sim_forward_s", "sim_s", false},
	{"process.cpu_ms_per_image", "ms", false},
	{"process.alloc_mb_per_image", "MB", false},
	{"process.gc_cpu_fraction", "ratio", false},
	{"process.gcs_per_image", "count", false},
	{"trace.overhead", "ratio", true},
	{"trace.unexplained_ms", "ms", false},
	{"failed_fraction", "ratio", false},
}

// layerRun is what a traced run hands the workload: an untraced phase
// with the process and program counters around it, then a traced phase
// on a freshly started traced system that is still running.
type layerRun struct {
	untraced, traced phase
	proc0, proc1     procSnap
	cnt0, cnt1       counters
	tsys             system
	rec              *recorder
	spans            []span
}

// common fills the metrics every workload derives the same way.
func (lr *layerRun) common(m map[string]float64, root string) tree {
	for k, v := range processMetrics(lr.proc0, lr.proc1, lr.untraced.attempted) {
		m[k] = v
	}
	m["trace.overhead"] = lr.traced.imagesPerSec() / lr.untraced.imagesPerSec()
	t := buildTree(lr.spans, root)
	if p50, err := lr.untraced.latency(0.5); err == nil {
		m["trace.unexplained_ms"] = p50 - median(t.perRoot(t.blockingSelf))
	}
	return t
}

// sumKids returns, per root, the summed f over descendants named name.
func (t tree) sumKids(name string, f func(s span) int64) []float64 {
	return t.perRoot(func(root span) int64 {
		var total int64
		t.walk(root, func(s span) {
			if s.name == name {
				total += f(s)
			}
		})
		return total
	})
}

func (b *httpBench) layers(ctx context.Context, lr *layerRun) (map[string]float64, error) {
	m := map[string]float64{}
	t := lr.common(m, "client")
	self := func(s span) int64 { return selfTime(s, t.kids[s.id]) }
	m["client.self_ms"] = mean(t.sumKids("client", self))
	m["transport.loopback_ms"] = mean(t.sumKids("client.transport", self))
	m["serve.handler_ms"] = mean(t.sumKids("serve", span.dur))

	images := float64(max(lr.untraced.attempted, 1))
	c0, c1 := lr.cnt0, lr.cnt1
	m["serve.decomposers_created"] = float64(c1.decomposers)
	m["serve.rejected"] = float64(c1.rejected - c0.rejected)
	if b.spec.gateway {
		m["gateway.self_ms"] = mean(t.sumKids("gateway", self))
		m["gateway.backend_ms"] = mean(t.sumKids("gateway", func(s span) int64 {
			return covered(s.start, s.end, t.kids[s.id])
		}))
		if lookups := (c1.hits - c0.hits) + (c1.misses - c0.misses); lookups > 0 {
			m["gateway.cache_hit_ratio"] = float64(c1.hits-c0.hits) / float64(lookups)
			m["gateway.cache_evictions_per_image"] = float64(c1.evict-c0.evict) / images
		}
		if adm := c1.admitted - c0.admitted; adm > 0 {
			m["gateway.attempts_per_request"] = float64(c1.attempts-c0.attempts) / float64(adm)
		}
		m["gateway.stripes_per_image"] = float64(c1.stripes-c0.stripes) / images
	}

	hops, err := b.capture(ctx, lr)
	if err != nil {
		return nil, err
	}
	costs, err := b.replay(ctx, lr.tsys.(*httpSystem).f.servers[0], hops)
	if err != nil {
		return nil, err
	}
	for k, v := range costs {
		m[k] = v
	}
	return m, nil
}

// captureRequests is how many requests the capture step records.
const captureRequests = 16

// capture sends captureRequests more requests through the traced system
// with body capture on and returns their hops grouped by request.
func (b *httpBench) capture(ctx context.Context, lr *layerRun) ([][]hop, error) {
	lr.rec.capturing.Store(true)
	defer lr.rec.capturing.Store(false)
	next := b.picker(^uint64(0), 0)
	n := min(captureRequests, max(len(b.images), 4))
	for i := 0; i < n; i++ {
		if _, err := lr.tsys.call(ctx, next(), lr.rec); err != nil {
			return nil, fmt.Errorf("capture: %w", err)
		}
	}
	lr.rec.mu.Lock()
	defer lr.rec.mu.Unlock()
	byReq := map[uint64][]hop{}
	var order []uint64
	for _, h := range lr.rec.hops {
		if _, ok := byReq[h.req]; !ok {
			order = append(order, h.req)
		}
		byReq[h.req] = append(byReq[h.req], h)
	}
	out := make([][]hop, len(order))
	for i, r := range order {
		out[i] = byReq[r]
	}
	return out, nil
}

// replayReps is how many times each replayed call runs; its median counts.
const replayReps = 3

// timed returns the median wall time of replayReps runs of fn, in ms,
// and fn's first error.
func timed(fn func() error) (float64, error) {
	ts := make([]float64, replayReps)
	for i := range ts {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts[i] = float64(time.Since(t0)) / 1e6
	}
	return median(ts), nil
}

// ledger accumulates replayed costs over the captured requests.
type ledger struct {
	sum                map[string]float64
	macs, fwdMS        float64 // convolution-tier forward work and time
	shipped, ownedRows float64 // stripe rows sent vs rows tiled
}

// time runs fn replayReps times and adds the median to key.
func (l *ledger) time(key string, fn func() error) error {
	ms, err := timed(fn)
	l.sum[key] += ms
	return err
}

// replay times the calls each captured request made at every layer that
// its HTTP path hides, by running the captured bodies through the same
// public functions, and returns mean per-image costs. Who encodes and
// decodes what follows the path: the client encodes its raster and
// decodes the response; a server parses, decodes, transforms and
// encodes; a tiling gateway decodes the input, encodes stripes, decodes
// their pyramids, reconstructs and encodes the result; a plain gateway
// parses the route and forwards bytes.
func (b *httpBench) replay(ctx context.Context, srv *serve.Server, reqs [][]hop) (map[string]float64, error) {
	l := &ledger{sum: map[string]float64{}}
	for _, hops := range reqs {
		for _, h := range hops {
			if err := b.replayHop(ctx, srv, h, l); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
	}
	n := float64(max(len(reqs), 1))
	out := map[string]float64{}
	for k, v := range l.sum {
		out[k] = v / n
	}
	if l.fwdMS > 0 {
		out["wavelet.forward_gmac_per_s"] = l.macs / (l.fwdMS / 1e3) / 1e9
	}
	if l.ownedRows > 0 {
		out["gateway.halo_row_ratio"] = l.shipped / l.ownedRows
	}
	return out, nil
}

func (b *httpBench) replayHop(ctx context.Context, srv *serve.Server, h hop, l *ledger) error {
	l.sum["proto.wire_mb_per_image"] += float64(len(h.reqBody)+len(h.respBody)) / 1e6
	fromClient := h.name == "client.transport"
	toServe := !fromClient || !b.spec.gateway
	// The sender encodes the request and decodes the response itself
	// unless it is a plain gateway forwarding bytes.
	senderCodes := fromClient || b.spec.tiled()
	if proto.MediaType(h.reqType) != proto.ContentTypeRaster {
		return fmt.Errorf("%s request of type %q", h.name, h.reqType)
	}
	im, err := proto.DecodeRaster(bytes.NewReader(h.reqBody))
	if err != nil {
		return err
	}
	if senderCodes {
		if err := l.time("proto.encode_raster_ms", func() error { return proto.EncodeRaster(io.Discard, im) }); err != nil {
			return err
		}
	}
	if !fromClient {
		l.shipped += float64(im.Rows)
	}
	var pyr *wavelet.Pyramid
	if toServe {
		if pyr, err = replayServe(ctx, srv, h, im, l); err != nil {
			return err
		}
	} else {
		_ = l.time("proto.parse_ms", func() error { // ParseRouteInfo cannot fail
			proto.ParseRouteInfo(h.query, h.reqType, h.reqBody)
			return nil
		})
		if b.spec.tiled() {
			if err := l.time("proto.decode_raster_ms", func() error {
				_, err := proto.DecodeRaster(bytes.NewReader(h.reqBody))
				return err
			}); err != nil {
				return err
			}
			for r := im.Rows; r > im.Rows>>b.req.Levels; r /= 2 {
				l.ownedRows += float64(r)
			}
			if pyr, err = b.replayStitched(im, l); err != nil {
				return err
			}
		}
	}
	// Responses: whoever built the pyramid encodes it; the sender decodes
	// unless it forwards.
	switch proto.MediaType(h.respType) {
	case proto.ContentTypePyramid:
		if pyr != nil {
			if err := l.time("proto.encode_pyramid_ms", func() error { return proto.EncodePyramid(io.Discard, pyr) }); err != nil {
				return err
			}
		}
		if senderCodes {
			return l.time("proto.decode_pyramid_ms", func() error {
				_, err := proto.DecodePyramid(bytes.NewReader(h.respBody))
				return err
			})
		}
	case proto.ContentTypePGM:
		out, err := image.ReadPGM(bytes.NewReader(h.respBody))
		if err != nil {
			return err
		}
		if pyr != nil {
			if err := l.time("image.pgm_write_ms", func() error { return image.WritePGM(io.Discard, out) }); err != nil {
				return err
			}
		}
		if senderCodes {
			return l.time("image.pgm_read_ms", func() error {
				_, err := image.ReadPGM(bytes.NewReader(h.respBody))
				return err
			})
		}
	default:
		return fmt.Errorf("%s response of type %q", h.name, h.respType)
	}
	return nil
}

// replayServe times a server's side of one hop: parse (which includes
// decoding the raster), the raster decode alone, the queued Server.Do,
// and the bare transform kernel. It returns the pyramid the server
// encodes.
func replayServe(ctx context.Context, srv *serve.Server, h hop, im *image.Image, l *ledger) (*wavelet.Pyramid, error) {
	var preq *proto.DecomposeRequest
	err := l.time("proto.parse_ms", func() error {
		r := httptest.NewRequest("POST", "/v1/decompose?"+h.query.Encode(), bytes.NewReader(h.reqBody))
		r.Header.Set("Content-Type", h.reqType)
		var perr *proto.Error
		if preq, perr = proto.ParseDecompose(httptest.NewRecorder(), r, int64(len(h.reqBody))+1); perr != nil {
			return perr
		}
		return nil
	})
	if err == nil {
		err = l.time("proto.decode_raster_ms", func() error {
			_, err := proto.DecodeRaster(bytes.NewReader(h.reqBody))
			return err
		})
	}
	if err == nil {
		err = l.time("serve.do_ms", func() error {
			res, err := srv.Do(ctx, serve.Request{Image: im, Bank: preq.Bank, Levels: preq.Levels, Tolerance: preq.Tol})
			if err == nil {
				res.Close()
			}
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	if preq.Bank == nil || preq.Levels == 0 {
		return nil, fmt.Errorf("request leaves bank or levels to the server default")
	}
	d := wavelet.NewDecomposerTol(preq.Bank, filter.Periodic, preq.Levels, preq.Tol)
	pyr, err := d.Decompose(im) // also warms the decomposer's arena
	if err != nil {
		return nil, err
	}
	pyr = pyr.Clone()
	key := "wavelet.forward_ms"
	if preq.Tol > 0 && wavelet.LiftingFor(preq.Bank, filter.Periodic, preq.Tol) != nil {
		key = "wavelet.lift_ms"
	}
	before := l.sum[key]
	if err := l.time(key, func() error { _, err := d.Decompose(im); return err }); err != nil {
		return nil, err
	}
	if key == "wavelet.forward_ms" {
		l.macs += float64(wavelet.DecomposeMACs(im.Rows, im.Cols, preq.Bank.DecLen(), preq.Levels))
		l.fwdMS += l.sum[key] - before
	}
	return pyr, nil
}

// replayStitched times the tiling gateway's inverse transform of the
// stitched pyramid, which equals the single-node one bit for bit.
func (b *httpBench) replayStitched(im *image.Image, l *ledger) (*wavelet.Pyramid, error) {
	bank, err := filter.ByName(b.req.Bank)
	if err != nil {
		return nil, err
	}
	pyr, err := wavelet.NewDecomposer(bank, filter.Periodic, b.req.Levels).Decompose(im)
	if err != nil {
		return nil, err
	}
	return pyr, l.time("wavelet.inverse_ms", func() error { wavelet.Reconstruct(pyr); return nil })
}

func (b *paperBench) layers(_ context.Context, lr *layerRun) (map[string]float64, error) {
	m := map[string]float64{}
	t := lr.common(m, "pipeline")
	for metric, name := range map[string]string{
		"core.parallel_forward_ms": "facade.decompose",
		"core.parallel_inverse_ms": "facade.parallel_reconstruct",
		"nx.dist_forward_ms":       "core.dist_forward",
		"nx.dist_inverse_ms":       "core.dist_inverse",
	} {
		m[metric] = mean(t.sumKids(name, span.dur))
	}
	s := lr.tsys.(*paperSystem)
	calls := float64(max(s.calls, 1))
	m["nx.msgs_per_image"] = float64(s.msgs) / calls
	m["nx.mb_per_image"] = float64(s.bytes) / 1e6 / calls
	m["nx.contended_msgs"] = float64(s.contended) / calls
	m["nx.sim_forward_s"] = median(s.simForward)

	// The single-thread kernels, replayed on the run's own inputs.
	l := &ledger{sum: map[string]float64{}}
	seq := wavelet.NewDecomposer(b.db8, filter.Periodic, paperLevels)
	lift := wavelet.NewDecomposerTol(b.rb, filter.Periodic, paperLevels, b.eps)
	for i, im := range b.images {
		for key, d := range map[string]*wavelet.Decomposer{"wavelet.forward_ms": seq, "wavelet.lift_ms": lift} {
			if _, err := d.Decompose(im); err != nil { // warm the arena
				return nil, err
			}
			if err := l.time(key, func() error { _, err := d.Decompose(im); return err }); err != nil {
				return nil, err
			}
		}
		_ = l.time("wavelet.inverse_ms", func() error { wavelet.Reconstruct(b.wantDB8[i]); return nil })
		l.macs += float64(wavelet.DecomposeMACs(im.Rows, im.Cols, b.db8.DecLen(), paperLevels))
	}
	n := float64(len(b.images))
	for k, v := range l.sum {
		m[k] = v / n
	}
	m["wavelet.forward_gmac_per_s"] = l.macs / (l.sum["wavelet.forward_ms"] / 1e3) / 1e9
	if pf := m["core.parallel_forward_ms"]; pf > 0 {
		m["core.speedup_2w"] = m["wavelet.forward_ms"] / pf
	}
	return m, nil
}
