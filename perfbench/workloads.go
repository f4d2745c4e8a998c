package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"wavelethpc"
	"wavelethpc/client"
	"wavelethpc/internal/core"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/mesh"
	"wavelethpc/internal/nx"
	"wavelethpc/internal/proto"
	"wavelethpc/internal/wavelet"
)

// workload is one set of generated inputs and the path they take
// through the program.
type workload interface {
	clients() int
	distinct() int
	// picker returns client c's sequence of input indices.
	picker(seed uint64, c int) func() int
	// start builds the system under test; rec non-nil traces it.
	start(rec *recorder) (system, error)
	// layers computes the per-layer metrics of a traced run.
	layers(ctx context.Context, lr *layerRun) (map[string]float64, error)
}

// system is a started workload.
type system interface {
	// call runs input idx through the program. The duration covers the
	// call alone; the output is verified after it.
	call(ctx context.Context, idx int, rec *recorder) (time.Duration, error)
	close() error
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"scene512", "tiled1k-roundtrip", "hot256-cached", "paper512"}

// newWorkload generates the named workload's inputs and references from
// seed. This is the benchmark's own work and is not part of set-up time.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "scene512":
		return newHTTPBench(httpBench{
			nclients: 1,
			spec:     fleetSpec{backends: 1},
			req:      client.DecomposeRequest{Bank: "db8", Levels: 3},
			images:   scenes(8, 512, 512, seed),
		})
	case "tiled1k-roundtrip":
		return newHTTPBench(httpBench{
			nclients:  1,
			spec:      fleetSpec{backends: 2, gateway: true, gatewayArgs: []string{"-tile-rows=512", "-tile-stripes=2"}},
			req:       client.DecomposeRequest{Bank: "db8", Levels: 3},
			roundtrip: true,
			images:    scenes(4, 1024, 1024, seed),
		})
	case "hot256-cached":
		return newHotBench(seed)
	case "paper512":
		return newPaperBench(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// httpBench drives the service over loopback HTTP through the public
// client: Decompose (raster in, pyramid out) or Roundtrip (raster in,
// reconstruction PGM out).
type httpBench struct {
	nclients  int
	spec      fleetSpec
	req       client.DecomposeRequest
	roundtrip bool
	images    []*image.Image
	// zipfS > 1 draws inputs from a Zipf law over images instead of
	// cycling through them.
	zipfS float64

	wantPyr []*wavelet.Pyramid // Decompose references
	wantPGM [][]byte           // Roundtrip references
}

func newHTTPBench(b httpBench) (*httpBench, error) {
	bank, err := filter.ByName(b.req.Bank)
	if err != nil {
		return nil, err
	}
	d := wavelet.NewDecomposerTol(bank, filter.Periodic, b.req.Levels, b.req.Tol)
	for _, im := range b.images {
		if b.roundtrip {
			pgm, err := pgmBytes(im)
			if err != nil {
				return nil, err
			}
			b.wantPGM = append(b.wantPGM, pgm)
			continue
		}
		p, err := d.Decompose(im)
		if err != nil {
			return nil, err
		}
		b.wantPyr = append(b.wantPyr, p.Clone())
	}
	return &b, nil
}

// newHotBench is hot256-cached: two clients draw 256² images from a
// Zipf law over a working set the gateway's cache cannot hold, so about
// three requests in four hit and the rest fill and evict. Misses run
// rbio4.4 on the lifting tier.
func newHotBench(seed uint64) (*httpBench, error) {
	const (
		workingSet   = 48
		cacheEntries = 16
	)
	rb, err := filter.ByName("rbio4.4")
	if err != nil {
		return nil, err
	}
	ls := wavelet.LiftingFor(rb, filter.Periodic, 1)
	if ls == nil {
		return nil, fmt.Errorf("rbio4.4 has no lifting scheme")
	}
	b, err := newHTTPBench(httpBench{
		nclients: 2,
		req:      client.DecomposeRequest{Bank: "rbio4.4", Levels: 3, Tol: ls.Eps},
		images:   scenes(workingSet, 256, 256, seed),
		zipfS:    1.2,
	})
	if err != nil {
		return nil, err
	}
	entry, err := encodedSize(b.wantPyr[0])
	if err != nil {
		return nil, err
	}
	// The gateway charges each entry its body plus a small overhead;
	// half an entry of slack keeps the count at cacheEntries.
	budget := cacheEntries*(entry+256) + entry/2
	b.spec = fleetSpec{backends: 2, gateway: true, gatewayArgs: []string{fmt.Sprintf("-cache-bytes=%d", budget)}}
	return b, nil
}

func encodedSize(p *wavelet.Pyramid) (int, error) {
	var buf bytes.Buffer
	err := proto.EncodePyramid(&buf, p)
	return buf.Len(), err
}

func (b *httpBench) clients() int  { return b.nclients }
func (b *httpBench) distinct() int { return len(b.images) }

func (b *httpBench) picker(seed uint64, c int) func() int {
	n := len(b.images)
	if b.zipfS > 1 {
		z := rand.NewZipf(rand.New(rand.NewSource(int64(seed)+int64(c)*7919)), b.zipfS, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
	i := c
	return func() int {
		k := i % n
		i += b.nclients
		return k
	}
}

type httpSystem struct {
	b *httpBench
	f *fleet
}

func (b *httpBench) start(rec *recorder) (system, error) {
	f, err := startFleet(b.spec, rec)
	if err != nil {
		return nil, err
	}
	return &httpSystem{b: b, f: f}, nil
}

func (s *httpSystem) close() error { return s.f.close() }

func (s *httpSystem) counters() counters { return s.f.counters() }

func (s *httpSystem) call(ctx context.Context, idx int, rec *recorder) (time.Duration, error) {
	b := s.b
	im := b.images[idx]
	var root span
	if rec != nil {
		root = rec.openRoot("client")
		ctx = withSpan(ctx, root)
	}
	var (
		pyr *wavelet.Pyramid
		out *image.Image
		err error
	)
	t0 := time.Now()
	if b.roundtrip {
		out, err = s.f.client.Roundtrip(ctx, im, b.req)
	} else {
		pyr, err = s.f.client.Decompose(ctx, im, b.req)
	}
	lat := time.Since(t0)
	if rec != nil {
		rec.close(root)
	}
	switch {
	case err != nil:
		return lat, err
	case b.roundtrip:
		return lat, samePGM(out, b.wantPGM[idx])
	}
	return lat, samePyramid(pyr, b.wantPyr[idx])
}

// paperBench is the paper's own experiment in process: per image the
// shared-memory forward transform (db8, 3 levels, 2 workers), the lifted
// rbio4.4 transform, the 2-worker inverse, and the distributed forward
// and inverse on the simulated 16-node Paragon with snake placement.
type paperBench struct {
	images   []*image.Image
	db8, rb  *filter.Bank
	eps      float64
	dist     core.DistConfig
	wantDB8  []*wavelet.Pyramid
	wantLift []*wavelet.Pyramid
	wantSim  []float64
}

const (
	paperLevels  = 3
	paperWorkers = 2
	// reconTol bounds a reconstruction's distance from its input.
	reconTol = 1e-9
)

func newPaperBench(seed uint64) (*paperBench, error) {
	b := &paperBench{images: scenes(4, 512, 512, seed)}
	var err error
	if b.db8, err = filter.ByName("db8"); err != nil {
		return nil, err
	}
	if b.rb, err = filter.ByName("rbio4.4"); err != nil {
		return nil, err
	}
	ls := wavelet.LiftingFor(b.rb, filter.Periodic, 1)
	if ls == nil {
		return nil, fmt.Errorf("rbio4.4 has no lifting scheme")
	}
	b.eps = ls.Eps
	b.dist = core.DistConfig{Machine: mesh.Paragon(), Placement: mesh.SnakePlacement{Width: 4},
		Procs: 16, Bank: b.db8, Levels: paperLevels}
	seq := wavelet.NewDecomposer(b.db8, filter.Periodic, paperLevels)
	lift := wavelet.NewDecomposerTol(b.rb, filter.Periodic, paperLevels, b.eps)
	for _, im := range b.images {
		p, err := seq.Decompose(im)
		if err != nil {
			return nil, err
		}
		b.wantDB8 = append(b.wantDB8, p.Clone())
		if p, err = lift.Decompose(im); err != nil {
			return nil, err
		}
		b.wantLift = append(b.wantLift, p.Clone())
		dr, err := core.DistributedDecompose(im, b.dist)
		if err != nil {
			return nil, err
		}
		b.wantSim = append(b.wantSim, dr.Sim.Elapsed)
	}
	return b, nil
}

func (b *paperBench) clients() int  { return 1 }
func (b *paperBench) distinct() int { return len(b.images) }

func (b *paperBench) picker(_ uint64, _ int) func() int {
	i := 0
	return func() int { i++; return (i - 1) % len(b.images) }
}

// paperSystem counts the simulator's traffic over its calls.
type paperSystem struct {
	b                      *paperBench
	calls, msgs, contended int
	bytes                  int64
	simForward             []float64
}

func (b *paperBench) start(*recorder) (system, error) { return &paperSystem{b: b}, nil }

func (s *paperSystem) close() error { return nil }

func (s *paperSystem) call(_ context.Context, idx int, rec *recorder) (time.Duration, error) {
	b := s.b
	im := b.images[idx]
	var root span
	step := func(name string, fn func() error) error {
		if rec == nil {
			return fn()
		}
		sp := rec.open(name, root.id, root.req)
		err := fn()
		rec.close(sp)
		return err
	}
	var (
		p1, p2      *wavelet.Pyramid
		back, dback *image.Image
		dr          *core.DistResult
		ir          *nx.Result
	)
	if rec != nil {
		root = rec.openRoot("pipeline")
	}
	t0 := time.Now()
	err := step("facade.decompose", func() (err error) {
		p1, err = wavelethpc.DecomposeWith(im, b.db8, wavelethpc.WithLevels(paperLevels), wavelethpc.WithWorkers(paperWorkers))
		return err
	})
	if err == nil {
		err = step("facade.decompose_lift", func() (err error) {
			p2, err = wavelethpc.DecomposeWith(im, b.rb, wavelethpc.WithLevels(paperLevels),
				wavelethpc.WithTolerance(b.eps), wavelethpc.WithWorkers(paperWorkers))
			return err
		})
	}
	if err == nil {
		err = step("facade.parallel_reconstruct", func() error {
			back = wavelethpc.ParallelReconstruct(p1, paperWorkers)
			return nil
		})
	}
	if err == nil {
		err = step("core.dist_forward", func() (err error) {
			dr, err = core.DistributedDecompose(im, b.dist)
			return err
		})
	}
	if err == nil {
		err = step("core.dist_inverse", func() (err error) {
			dback, ir, err = core.DistributedReconstruct(dr.Pyramid, b.dist)
			return err
		})
	}
	lat := time.Since(t0)
	if rec != nil {
		rec.close(root)
	}
	if err != nil {
		return lat, err
	}
	s.calls++
	s.msgs += dr.Sim.Msgs + ir.Msgs
	s.bytes += dr.Sim.Bytes + ir.Bytes
	s.contended += dr.Sim.ContendedMsgs + ir.ContendedMsgs
	s.simForward = append(s.simForward, dr.Sim.Elapsed)
	for _, c := range []struct {
		what string
		err  error
	}{
		{"2-worker db8 pyramid", samePyramid(p1, b.wantDB8[idx])},
		{"2-worker lifted rbio4.4 pyramid", samePyramid(p2, b.wantLift[idx])},
		{"distributed db8 pyramid", samePyramid(dr.Pyramid, b.wantDB8[idx])},
		{"2-worker reconstruction", within(back, im, reconTol)},
		{"distributed reconstruction", within(dback, im, reconTol)},
	} {
		if c.err != nil {
			return lat, fmt.Errorf("paper512 %s: %w", c.what, c.err)
		}
	}
	if dr.Sim.Elapsed != b.wantSim[idx] {
		return lat, fmt.Errorf("paper512 simulated forward time %v, want exactly %v", dr.Sim.Elapsed, b.wantSim[idx])
	}
	return lat, nil
}
