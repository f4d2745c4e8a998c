package wavelethpc

import (
	"math"
	"testing"
)

func TestFacadeRoundTrip(t *testing.T) {
	im := Landsat(64, 64, 1)
	pyr, err := DecomposeWith(im, Daubechies8(), WithLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	back := Reconstruct(pyr)
	if psnr := PSNR(im, back); !math.IsInf(psnr, 1) && psnr < 120 {
		t.Errorf("round trip PSNR %g", psnr)
	}
}

func TestFacadeParallelMatchesSequential(t *testing.T) {
	im := Landsat(64, 64, 2)
	seq, err := DecomposeWith(im, Haar(), WithLevels(3))
	if err != nil {
		t.Fatal(err)
	}
	par, err := DecomposeWith(im, Haar(), WithLevels(3), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Approx.At(0, 0) != par.Approx.At(0, 0) {
		t.Error("parallel facade diverged")
	}
	back := ParallelReconstruct(par, 2)
	if psnr := PSNR(im, back); !math.IsInf(psnr, 1) && psnr < 120 {
		t.Errorf("parallel reconstruct PSNR %g", psnr)
	}
}

func TestFacadeFilters(t *testing.T) {
	for _, name := range []string{"haar", "db4", "db6", "db8"} {
		b, err := FilterByName(name)
		if err != nil || b == nil {
			t.Errorf("FilterByName(%q): %v", name, err)
		}
	}
	if Haar().Len() != 2 || Daubechies4().Len() != 4 || Daubechies6().Len() != 6 || Daubechies8().Len() != 8 {
		t.Error("bank lengths wrong")
	}
}

func TestFacadeMachines(t *testing.T) {
	if Paragon().Nodes() != 64 || T3D().Nodes() != 256 || DEC5000().Nodes() != 1 {
		t.Error("machine presets wrong")
	}
	mas := Table1MasPar()
	if mas[0] <= 0 || MasParMP2().PEs() != 16384 {
		t.Error("MasPar facade wrong")
	}
}

func TestFacadeDistributed(t *testing.T) {
	im := Landsat(128, 128, 3)
	cfg := DistConfig{
		Machine:   Paragon(),
		Placement: SnakePlacement(4),
		Procs:     4,
		Bank:      Daubechies8(),
		Levels:    1,
	}
	res, err := DistributedDecompose(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.Elapsed <= 0 || res.Pyramid == nil {
		t.Error("distributed facade result incomplete")
	}
	cfg.Bank = nil
	if _, err := DistributedDecompose(im, cfg); err == nil {
		t.Error("nil bank accepted")
	}
	if NaivePlacement(4).Name() != "naive" {
		t.Error("naive placement facade wrong")
	}
}

func TestFacadePGM(t *testing.T) {
	im := Landsat(16, 16, 4)
	path := t.TempDir() + "/f.pgm"
	if err := SavePGM(path, im); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPGM(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != 16 || back.Cols != 16 {
		t.Error("PGM facade round trip shape wrong")
	}
	if NewImage(3, 4).Rows != 3 {
		t.Error("NewImage wrong")
	}
}

func TestFacadeDistributedReconstruct(t *testing.T) {
	im := Landsat(128, 128, 6)
	pyr, err := DecomposeWith(im, Daubechies8(), WithLevels(1))
	if err != nil {
		t.Fatal(err)
	}
	back, err := DistributedReconstruct(pyr, DistConfig{
		Machine:   Paragon(),
		Placement: SnakePlacement(4),
		Procs:     4,
		Bank:      Daubechies8(),
		Levels:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if psnr := PSNR(im, back); !math.IsInf(psnr, 1) && psnr < 120 {
		t.Errorf("distributed reconstruction PSNR %g", psnr)
	}
	pyr.Bank = nil
	if _, err := DistributedReconstruct(pyr, DistConfig{Machine: Paragon(), Placement: SnakePlacement(4), Procs: 4}); err == nil {
		t.Error("pyramid without a bank accepted")
	}
}

func TestFacadeBatchAndPadding(t *testing.T) {
	bands := LandsatBands(64, 64, 3, 2)
	pyrs, err := DecomposeAllWith(bands, Daubechies8(), WithLevels(2), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(pyrs) != 3 {
		t.Fatalf("%d pyramids", len(pyrs))
	}
	odd := Landsat(50, 50, 1)
	padded, r0, c0 := PadToDecomposable(odd, 2)
	if padded.Rows%4 != 0 || padded.Cols%4 != 0 {
		t.Error("padding not decomposable")
	}
	p, err := DecomposeWith(padded, Haar(), WithLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	back := Crop(Reconstruct(p), r0, c0)
	if psnr := PSNR(odd, back); !math.IsInf(psnr, 1) && psnr < 120 {
		t.Errorf("padded round trip PSNR %g", psnr)
	}
}
