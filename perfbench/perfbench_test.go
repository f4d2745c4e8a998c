package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"wavelethpc/client"
	"wavelethpc/internal/image"
)

func inputsOf(t *testing.T, name string, seed uint64) []string {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var ims []*image.Image
	switch b := w.(type) {
	case *httpBench:
		ims = b.images
	case *paperBench:
		ims = b.images
	}
	var ds []string
	for _, im := range ims {
		ds = append(ds, digest(im))
	}
	return ds
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := inputsOf(t, name, 7), inputsOf(t, name, 7), inputsOf(t, name, 8)
		if len(a) == 0 || strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%s: seed 7 gave different input digests across generations", name)
		}
		if strings.Join(a, ",") == strings.Join(c, ",") {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
		seen := map[string]bool{}
		for _, d := range a {
			if seen[d] {
				t.Errorf("%s: inputs are not distinct", name)
			}
			seen[d] = true
		}
	}
}

func TestScenesAreEightBit(t *testing.T) {
	for _, v := range scene(64, 64, 3, 0).Pix {
		if v != math.Round(v) || v < 0 || v > 255 {
			t.Fatalf("pixel %v is not an 8-bit grey level", v)
		}
	}
}

func series(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so the helper must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
	} {
		got, err := percentile(series(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d: err = %v, want ok = %v", 100*c.p, c.n, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Errorf("p%g of %d = %v, want %v", 100*c.p, c.n, got, c.want)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(v, n=4) → [3.0, 3.75, 4.55], median 3.75.
	v := []float64{3.1, 2.7, 5.0, 4.4, 3.9, 2.2, 6.1, 3.3, 4.0, 3.6}
	if got, want := quartileSpread(v), (4.55-3.0)/3.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{1, 2, 3}); got != 1 {
		t.Errorf("spread of 1,2,3 = %v, want 1", got)
	}
}

func sp(id, parent uint64, name string, start, end int64) span {
	return span{id: id, parent: parent, req: 1, name: name, start: start, end: end}
}

func TestSelfTimeAndBlockingPath(t *testing.T) {
	// client [0,100) ─ transport [10,90) ─ gateway [20,80) ┬ attempt [25,50) ─ serve [30,45)
	//                                                      └ attempt [30,70) ─ serve [35,65)
	// plus a child poking outside its parent, which must be clipped.
	spans := []span{
		sp(1, 0, "client", 0, 100),
		sp(2, 1, "client.transport", 10, 90),
		sp(3, 2, "gateway", 20, 80),
		sp(4, 3, "gateway.attempt", 25, 50),
		sp(5, 3, "gateway.attempt", 30, 70),
		sp(6, 4, "serve", 30, 45),
		sp(7, 5, "serve", 35, 65),
	}
	tr := buildTree(spans, "client")
	if len(tr.roots) != 1 {
		t.Fatalf("roots = %d", len(tr.roots))
	}
	self := func(id uint64) int64 { return selfTime(spans[id-1], tr.kids[id]) }
	for id, want := range map[uint64]int64{1: 20, 2: 20, 3: 15, 4: 10, 5: 10, 6: 15, 7: 30} {
		if got := self(id); got != want {
			t.Errorf("self(%s #%d) = %d, want %d", spans[id-1].name, id, got, want)
		}
	}
	// Blocking path: client, transport, gateway, then the attempt that
	// ended last and its serve span: 20+20+15+10+30 = 95. The 5 units
	// only the faster attempt covered are parallel slack.
	if got := tr.blockingSelf(tr.roots[0]); got != 95 {
		t.Errorf("blocking self = %d, want 95", got)
	}
	if got := covered(0, 100, []span{sp(8, 0, "x", -5, 10), sp(9, 0, "x", 5, 20), sp(10, 0, "x", 90, 120)}); got != 30 {
		t.Errorf("covered = %d, want 30 (clipped, merged)", got)
	}
	// Sequential children all block.
	seq := []span{sp(1, 0, "pipeline", 0, 100), sp(2, 1, "a", 0, 30), sp(3, 1, "b", 30, 60), sp(4, 1, "c", 70, 95)}
	st := buildTree(seq, "pipeline")
	if got := st.blockingSelf(st.roots[0]); got != 100 {
		t.Errorf("sequential blocking self = %d, want 100", got)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	ref := spanRef{id: 42, req: 7}
	got, ok := parseSpanHeader(ref.header())
	if !ok || got != ref {
		t.Errorf("parse(%q) = %v, %v", ref.header(), got, ok)
	}
	if _, ok := parseSpanHeader("junk"); ok {
		t.Error("parsed a malformed header")
	}
}

func TestVerificationFlagsOneFlippedBit(t *testing.T) {
	w, err := newHTTPBench(httpBench{req: client.DecomposeRequest{Bank: "db8", Levels: 2}, images: scenes(1, 64, 64, 1)})
	if err != nil {
		t.Fatal(err)
	}
	want := w.wantPyr[0]
	got := want.Clone()
	if err := samePyramid(got, want); err != nil {
		t.Fatalf("identical pyramids: %v", err)
	}
	hh := got.Levels[1].HH
	hh.Pix[5] = math.Float64frombits(math.Float64bits(hh.Pix[5]) ^ 1)
	if samePyramid(got, want) == nil {
		t.Error("a flipped bit in a detail band passed verification")
	}

	im := scene(16, 16, 2, 0)
	pgm, err := pgmBytes(im)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePGM(im, pgm); err != nil {
		t.Fatalf("identical PGM: %v", err)
	}
	bad := append([]byte(nil), pgm...)
	bad[len(bad)-1] ^= 1
	if samePGM(im, bad) == nil {
		t.Error("a flipped bit in a PGM passed verification")
	}
}

// A corrupted reference must surface as failed requests through the
// whole HTTP path, which is what failed_fraction counts.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	w, err := newHTTPBench(httpBench{
		nclients: 1,
		spec:     fleetSpec{backends: 1},
		req:      client.DecomposeRequest{Bank: "db8", Levels: 2},
		images:   scenes(2, 64, 64, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := w.start(newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if p := warm(context.Background(), w, sys); p.failed != 0 {
		t.Fatalf("clean run failed %d of %d: %v", p.failed, p.attempted, p.firstErr)
	}
	a := w.wantPyr[1].Approx
	a.Pix[0] = math.Float64frombits(math.Float64bits(a.Pix[0]) ^ 1)
	p := warm(context.Background(), w, sys)
	if p.attempted != 2 || p.failed != 1 {
		t.Errorf("with one corrupted output: attempted %d, failed %d, want 2 and 1", p.attempted, p.failed)
	}
}

func TestPhaseFigures(t *testing.T) {
	p := phase{wall: 2}
	for i := 1; i <= 200; i++ {
		p.latMS = append(p.latMS, float64(i))
	}
	if got := p.imagesPerSec(); got != 100 {
		t.Errorf("images/s = %v, want 100", got)
	}
	if got, err := p.latency(0.9); err != nil || got != 180 {
		t.Errorf("p90 = %v, %v; want 180", got, err)
	}
	p.latMS = p.latMS[:99]
	if _, err := p.latency(0.9); err == nil {
		t.Error("p90 of 99 samples accepted")
	}
}
