package gateway

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sync"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/wavelet"
)

// Distributed tile decomposition: the gateway-level realization of the
// paper's Paragon stripe/halo scheme. An oversized image is split into
// row stripes by the stripe planner (wavelet.PlanStripes), each stripe
// (plus its halo, wrapped modulo the level height) is shipped to a
// backend as a one-level decompose in the exact float64 raster form, and
// the returned sub-pyramids are stitched into the global level — then
// the stitched LL recurses for the next level. The result is
// Float64bits-identical to the single-node transform because
// horizontal filtering touches each row independently, every stripe
// carries full-width rows, and the planner's halo supplies exactly the
// rows the causal vertical filter reads below the stripe.
//
// Sub-requests pin tol=0 (the bit-identical convolution tier) and assume
// backends run the default periodic extension; RouteKey.Shard spreads
// the same-shape stripes across the fleet instead of letting rendezvous
// affinity pile them onto one backend.

// shouldTile reports whether the request takes the distributed tiling
// path: tiling configured, image tall enough, and every parameter the
// coordinator must understand — bank, levels, shape, tol=0 — cleanly
// parsed and decomposable.
func (g *Gateway) shouldTile(info *proto.RouteInfo) bool {
	if g.cfg.TileRows <= 0 || !info.OK || !info.ShapeOK {
		return false
	}
	if info.Rows < g.cfg.TileRows {
		return false
	}
	// The coordinator drives the decomposition itself, so it cannot
	// defer to backend defaults or the lifting tier.
	if info.Bank == "" || info.Levels < 1 || info.Tol != 0 {
		return false
	}
	if _, err := filter.ByName(info.Bank); err != nil {
		return false
	}
	return wavelet.CheckDecomposable(info.Rows, info.Cols, info.Levels) == nil
}

// tiledDecompose coordinates the stripe fan-out level by level and
// renders the stitched pyramid in the requested output form. A stripe
// whose backend answers non-200 short-circuits: that response is
// forwarded as the overall result so the client sees the authoritative
// backend diagnostic.
func (g *Gateway) tiledDecompose(ctx context.Context, info *proto.RouteInfo) (*Result, error) {
	bank, err := filter.ByName(info.Bank)
	if err != nil {
		return nil, fmt.Errorf("gateway: tiling: %w", err)
	}
	cur, err := decodeTileInput(info.ImageData)
	if err != nil {
		return nil, fmt.Errorf("gateway: tiling: %w", err)
	}
	if cur.Rows != info.Rows || cur.Cols != info.Cols {
		return nil, fmt.Errorf("gateway: tiling: sniffed %dx%d but decoded %dx%d",
			info.Rows, info.Cols, cur.Rows, cur.Cols)
	}

	stripes := g.cfg.TileStripes
	if stripes <= 0 {
		stripes = len(g.backends)
	}
	p := &wavelet.Pyramid{Bank: bank, Ext: filter.Periodic, Levels: make([]wavelet.DetailBands, info.Levels)}
	attempts := 0
	for l := 0; l < info.Levels; l++ {
		level, n, err2 := g.tileOneLevel(ctx, info.Bank, bank, cur, stripes)
		if err2 != nil {
			return nil, err2
		}
		if level.errResult != nil {
			return level.errResult, nil
		}
		attempts += n
		p.Levels[info.Levels-1-l] = wavelet.DetailBands{LH: level.lh, HL: level.hl, HH: level.hh}
		cur = level.ll
	}
	p.Approx = cur

	g.metrics.TiledRequests.Add(1)
	var buf bytes.Buffer
	mw := &memResponseWriter{header: http.Header{}, body: &buf}
	if err := proto.WriteDecomposeResponse(mw, p, info.Output); err != nil {
		return nil, fmt.Errorf("gateway: tiling: encoding response: %w", err)
	}
	return &Result{
		Status:   http.StatusOK,
		Header:   mw.header,
		Body:     buf.Bytes(),
		Backend:  "tiled",
		Attempts: attempts,
	}, nil
}

// stitchedLevel is one stitched decomposition level.
type stitchedLevel struct {
	ll, lh, hl, hh *image.Image
	// errResult carries a backend's non-200 response verbatim when a
	// stripe was refused.
	errResult *Result
}

// tileOneLevel splits cur into row stripes with halos, fans them out as
// one-level pyramid sub-requests, and stitches the kept output rows.
func (g *Gateway) tileOneLevel(ctx context.Context, bankName string, bank *filter.Bank, cur *image.Image, stripes int) (*stitchedLevel, int, error) {
	// cur is not read after the fan-out, so the collector may free it
	// while the backends work.
	half, cols := cur.Rows/2, cur.Cols
	plan := wavelet.PlanStripes(cur.Rows, stripes, bank)

	type stripeOut struct {
		res      *Result
		err      error
		attempts int
	}
	outs := make([]stripeOut, len(plan))
	var wg sync.WaitGroup
	for i, st := range plan {
		sub := wavelet.WrapRows(cur, st.In, st.Rows)
		q := url.Values{}
		q.Set("bank", bankName)
		q.Set("levels", "1")
		q.Set("output", proto.OutputPyramid)
		var body bytes.Buffer
		if err := proto.EncodeRaster(&body, sub); err != nil {
			return nil, 0, fmt.Errorf("gateway: tiling: encoding stripe: %w", err)
		}
		req := &Request{
			Method:      http.MethodPost,
			Path:        "/v1/decompose",
			Query:       q,
			Body:        body.Bytes(),
			ContentType: proto.ContentTypeRaster,
			Key: RouteKey{
				Rows: sub.Rows, Cols: sub.Cols,
				Bank: bankName, Levels: 1,
				Shard: i + 1,
			},
		}
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			res, err := g.Do(ctx, req)
			outs[slot] = stripeOut{res: res, err: err}
			if res != nil {
				outs[slot].attempts = res.Attempts
			}
		}(i)
		g.metrics.TileStripes.Add(1)
	}
	wg.Wait()

	level := &stitchedLevel{
		ll: image.New(half, cols/2),
		lh: image.New(half, cols/2),
		hl: image.New(half, cols/2),
		hh: image.New(half, cols/2),
	}
	attempts := 0
	for i, st := range plan {
		o := outs[i]
		if o.err != nil {
			return nil, 0, o.err
		}
		attempts += o.attempts
		if o.res.Status != http.StatusOK {
			level.errResult = o.res
			return level, attempts, nil
		}
		sp, err := proto.DecodePyramid(bytes.NewReader(o.res.Body))
		if err != nil {
			return nil, 0, fmt.Errorf("gateway: tiling: stripe %d from %s: %w", i, o.res.Backend, err)
		}
		if sp.Depth() != 1 || sp.Approx.Rows < st.Share || sp.Approx.Cols != cols/2 {
			return nil, 0, fmt.Errorf("gateway: tiling: stripe %d from %s: unexpected %dx%d depth-%d pyramid",
				i, o.res.Backend, sp.Approx.Rows, sp.Approx.Cols, sp.Depth())
		}
		// Keep the stripe's own output rows: the halo rows beyond them
		// belong to the next stripe (or wrapped around) and are discarded.
		placeRows(level.ll, sp.Approx, st.Out, st.Share)
		placeRows(level.lh, sp.Levels[0].LH, st.Out, st.Share)
		placeRows(level.hl, sp.Levels[0].HL, st.Out, st.Share)
		placeRows(level.hh, sp.Levels[0].HH, st.Out, st.Share)
	}
	return level, attempts, nil
}

// placeRows copies src rows [0, n) into dst rows [r0, r0+n).
func placeRows(dst, src *image.Image, r0, n int) {
	for m := 0; m < n; m++ {
		copy(dst.Row(r0+m), src.Row(m))
	}
}

// decodeTileInput decodes the raw image payload of a tiling request in
// either wire form.
func decodeTileInput(data []byte) (*image.Image, error) {
	if _, _, ok := proto.SniffRasterShape(data); ok {
		return proto.DecodeRaster(bytes.NewReader(data))
	}
	return image.ReadPGM(bytes.NewReader(data))
}

// memResponseWriter adapts proto's renderer onto an in-memory Result.
type memResponseWriter struct {
	header http.Header
	body   *bytes.Buffer
	status int
}

func (m *memResponseWriter) Header() http.Header { return m.header }

func (m *memResponseWriter) Write(p []byte) (int, error) { return m.body.Write(p) }

func (m *memResponseWriter) WriteHeader(status int) { m.status = status }
