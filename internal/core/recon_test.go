package core

import (
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/mesh"
	"wavelethpc/internal/wavelet"
)

func TestDistributedReconstructAllConfigs(t *testing.T) {
	im := image.Landsat(128, 128, 42)
	for _, tc := range []struct {
		bank   *filter.Bank
		levels int
		p      int
	}{
		{filter.Daubechies8(), 1, 1},
		{filter.Daubechies8(), 1, 4},
		{filter.Daubechies8(), 2, 2},
		{filter.Daubechies6(), 1, 8},
		{filter.Daubechies4(), 2, 8},
		{filter.Haar(), 4, 4},
		{filter.Haar(), 1, 16},
	} {
		pyr, err := wavelet.Decompose(im, tc.bank, filter.Periodic, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		back, sim, err := DistributedReconstruct(pyr, distCfg(tc.p, tc.bank, tc.levels))
		if err != nil {
			t.Fatalf("%s/L%d P=%d: %v", tc.bank.Name, tc.levels, tc.p, err)
		}
		if !image.Equal(im, back, 1e-8) {
			t.Errorf("%s/L%d P=%d: reconstruction mismatch", tc.bank.Name, tc.levels, tc.p)
		}
		if sim.Elapsed <= 0 {
			t.Errorf("%s/L%d P=%d: no elapsed time", tc.bank.Name, tc.levels, tc.p)
		}
	}
}

func TestDistributedRoundTripThroughSimulator(t *testing.T) {
	// Full round trip entirely on the simulated machine: distributed
	// decompose, then distributed reconstruct of the gathered pyramid.
	im := image.Landsat(128, 128, 9)
	cfg := distCfg(8, filter.Daubechies4(), 2)
	dec, err := DistributedDecompose(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := DistributedReconstruct(dec.Pyramid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !image.Equal(im, back, 1e-8) {
		t.Error("simulated round trip mismatch")
	}
}

func TestDistributedReconstructValidation(t *testing.T) {
	im := image.Landsat(128, 128, 1)
	pyr, _ := wavelet.Decompose(im, filter.Haar(), filter.Periodic, 4)
	// 16 ranks leave odd deepest stripes (16 rows over 16 ranks at the
	// deepest level input).
	if _, _, err := DistributedReconstruct(pyr, distCfg(16, filter.Haar(), 4)); err == nil {
		t.Error("invalid rank count accepted")
	}
	if _, _, err := DistributedReconstruct(pyr, distCfg(4, filter.Daubechies8(), 4)); err == nil {
		t.Error("haar pyramid reconstructed with a db8 cfg.Bank")
	}
	sym, _ := wavelet.Decompose(im, filter.Haar(), filter.Symmetric, 4)
	if _, _, err := DistributedReconstruct(sym, distCfg(4, filter.Haar(), 4)); err == nil {
		t.Error("symmetric-extension pyramid accepted")
	}
	pyr.Bank = nil
	if _, _, err := DistributedReconstruct(pyr, distCfg(4, nil, 4)); err == nil {
		t.Error("pyramid without a bank accepted")
	}
}

// TestDistributedReconstructUsesPyramidBank checks synthesis runs with
// the pyramid's own bank, so a nil cfg.Bank inherits it.
func TestDistributedReconstructUsesPyramidBank(t *testing.T) {
	im := image.Landsat(128, 128, 3)
	pyr, err := wavelet.Decompose(im, filter.Daubechies8(), filter.Periodic, 2)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := DistributedReconstruct(pyr, distCfg(4, nil, 2))
	if err != nil {
		t.Fatalf("nil cfg.Bank: %v", err)
	}
	if !image.Equal(im, back, 1e-8) {
		t.Error("nil cfg.Bank: reconstruction mismatch")
	}
}

func TestDistributedReconstructNaivePlacement(t *testing.T) {
	im := image.Landsat(128, 128, 3)
	pyr, _ := wavelet.Decompose(im, filter.Daubechies8(), filter.Periodic, 1)
	cfg := distCfg(8, filter.Daubechies8(), 1)
	cfg.Placement = mesh.NaivePlacement{Width: 4}
	back, _, err := DistributedReconstruct(pyr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !image.Equal(im, back, 1e-8) {
		t.Error("naive placement changed reconstruction values")
	}
}

func TestReconstructionTimeComparableToDecomposition(t *testing.T) {
	// Figure 2 is the mirror process of Figure 1; its simulated cost
	// should be within ~2x of the decomposition (synthesis does the same
	// MAC count but different data movement).
	im := image.Landsat(256, 256, 5)
	cfg := distCfg(8, filter.Daubechies8(), 1)
	dec, err := DistributedDecompose(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, sim, err := DistributedReconstruct(dec.Pyramid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := sim.Elapsed / dec.Sim.Elapsed
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("reconstruction/decomposition time ratio %g out of range", ratio)
	}
}
