package core

import (
	"errors"
	"fmt"

	"wavelethpc/internal/budget"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/nx"
	"wavelethpc/internal/wavelet"
)

// Distributed reconstruction: the paper's Figure 2 reverse process on the
// simulated machine. Wavelet reconstruction mirrors decomposition — per
// level, column synthesis doubles the rows, then row synthesis doubles
// the columns — and the striped layout needs a guard exchange in the
// opposite direction: synthesis output row r draws on coefficient rows
// ⌈(r-f+1)/2⌉..⌊r/2⌋, so each stripe needs up to ⌈f/2⌉ coefficient rows
// from its NORTH neighbor.

// DistributedReconstruct inverts DistributedDecompose on the simulated
// machine: rank 0 scatters the pyramid stripes, each level synthesizes
// columns (with a north guard exchange) then rows, and rank 0 gathers the
// reconstructed image. The result equals wavelet.Reconstruct to
// floating-point tolerance.
//
// Synthesis uses the pyramid's own bank. cfg.Bank may be nil; when set it
// must name the same bank. Only periodic pyramids are accepted: the
// striped program wraps rank 0's north guard around the image.
func DistributedReconstruct(p *wavelet.Pyramid, cfg DistConfig) (*image.Image, *nx.Result, error) {
	bank := p.Bank
	switch {
	case bank == nil:
		return nil, nil, errors.New("core: pyramid has no filter bank")
	case cfg.Bank != nil && cfg.Bank.Name != bank.Name:
		return nil, nil, fmt.Errorf("core: DistConfig.Bank %q does not match the pyramid's bank %q", cfg.Bank.Name, bank.Name)
	case p.Ext != filter.Periodic:
		return nil, nil, fmt.Errorf("core: distributed reconstruction needs a periodic pyramid, got %s extension", p.Ext)
	}
	procs := cfg.Procs
	f := bank.RecLen()
	rows := p.Approx.Rows << uint(p.Depth())
	cols := p.Approx.Cols << uint(p.Depth())
	if err := validateStriped(rows, cols, procs, f, p.Depth()); err != nil {
		return nil, nil, err
	}
	cost := cfg.Machine.Cost
	out := image.New(rows, cols)

	prog := func(r *nx.Rank) {
		id := r.ID()

		// --- Scatter pyramid stripes -----------------------------------
		// Rank i receives its stripe of the approximation and of every
		// detail band, packed into one message.
		var parts [][]float64
		if id == 0 {
			parts = make([][]float64, procs)
			for i := 0; i < procs; i++ {
				pk := stripeOfPyramid(p, i, procs)
				parts[i] = pk
			}
			r.Compute(float64(rows*cols*8)*cost.MemByteTime, budget.UniqueRedundancy)
		}
		packed := r.Scatter(0, parts)
		cur, details := unpackPyramidStripe(packed, p, id, procs)

		// --- Level loop (coarsest first) --------------------------------
		for l := 0; l < p.Depth(); l++ {
			r.ComputeOps(50, cost.FlopTime, budget.Duplication)
			r.ComputeOps(30, cost.FlopTime, budget.UniqueRedundancy)
			d := details[l]

			// North guard: synthesis of local output rows needs up to
			// g coefficient rows from the previous rank's bottom.
			g := (f + 1) / 2
			if g > cur.Rows {
				g = cur.Rows
			}
			prev := (id - 1 + procs) % procs
			next := (id + 1) % procs
			// Ship the bottom g rows of all four coefficient stripes to
			// the next rank; exchange symmetrically ("around").
			bot := packRows(cur.Rows-g, cur.Rows, cur, d.LH, d.HL, d.HH)
			top := packRows(0, g, cur, d.LH, d.HL, d.HH)
			r.Compute(float64(len(bot)+len(top))*8*cost.MemByteTime, budget.UniqueRedundancy)
			r.SendFloats(next, tagGuardDown, bot)
			r.SendFloats(prev, tagGuardUp, top)
			northData, _ := r.RecvFloats(prev, tagGuardDown)
			r.RecvFloats(next, tagGuardUp) // south guard unused by synthesis
			nLL, nLH, nHL, nHH := unpackFour(northData, g, cur.Cols)

			// Column synthesis with the north guard, then local row
			// synthesis (rows are complete after the column pass).
			lImg := colSynthesizeStripe(cur, d.LH, nLL, nLH, bank)
			hImg := colSynthesizeStripe(d.HL, d.HH, nHL, nHH, bank)
			outputs := 2 * lImg.Rows * lImg.Cols
			r.Compute(float64(outputs)*(float64(f)*cost.MACTime+cost.CoefTime), budget.Useful)

			merged := wavelet.SynthesizeRows(lImg, hImg, bank, filter.Periodic)
			outputs = merged.Rows * merged.Cols
			r.Compute(float64(outputs)*(float64(f)*cost.MACTime+cost.CoefTime), budget.Useful)
			cur = merged
			r.Barrier()
		}

		// --- Gather the image stripes -----------------------------------
		if id != 0 {
			r.SendFloats(0, tagResult, flattenRows(cur, 0, cur.Rows))
		} else {
			lr := rows / procs
			placeFlatAt(out, 0, 0, flattenRows(cur, 0, cur.Rows), cols)
			for src := 1; src < procs; src++ {
				flat, _ := r.RecvFloats(src, tagResult)
				placeFlatAt(out, src*lr, 0, flat, cols)
			}
		}
	}

	sim, err := nx.Run(nx.Config{Machine: cfg.Machine, Placement: cfg.Placement, Procs: procs, Trace: cfg.Trace}, prog)
	if err != nil {
		return nil, nil, err
	}
	return out, sim, nil
}

// stripeOfPyramid packs rank i's stripe of every pyramid band
// (approximation first, then per level LH, HL, HH, coarsest first).
func stripeOfPyramid(p *wavelet.Pyramid, rank, procs int) []float64 {
	grab := func(im *image.Image) []float64 {
		lr := im.Rows / procs
		return flattenRows(im, rank*lr, (rank+1)*lr)
	}
	out := grab(p.Approx)
	for _, d := range p.Levels {
		out = append(out, grab(d.LH)...)
		out = append(out, grab(d.HL)...)
		out = append(out, grab(d.HH)...)
	}
	return out
}

// unpackPyramidStripe inverts stripeOfPyramid, returning the local
// approximation stripe and the per-level detail stripes.
func unpackPyramidStripe(flat []float64, p *wavelet.Pyramid, rank, procs int) (*image.Image, []wavelet.DetailBands) {
	take := func(rows, cols int) *image.Image {
		n := rows * cols
		im := imageFromFlat(rows, cols, flat[:n])
		flat = flat[n:]
		return im
	}
	ar, ac := p.Approx.Rows/procs, p.Approx.Cols
	approx := take(ar, ac)
	details := make([]wavelet.DetailBands, p.Depth())
	for l, d := range p.Levels {
		lr, lc := d.LH.Rows/procs, d.LH.Cols
		details[l] = wavelet.DetailBands{LH: take(lr, lc), HL: take(lr, lc), HH: take(lr, lc)}
	}
	return approx, details
}

// unpackFour inverts packRows over four stripes for g guard rows of the given width.
func unpackFour(flat []float64, g, cols int) (a, b, c, d *image.Image) {
	n := g * cols
	a = imageFromFlat(g, cols, flat[0*n:1*n])
	b = imageFromFlat(g, cols, flat[1*n:2*n])
	c = imageFromFlat(g, cols, flat[2*n:3*n])
	d = imageFromFlat(g, cols, flat[3*n:4*n])
	return a, b, c, d
}

// colSynthesizeStripe merges a low/high coefficient stripe pair into the
// doubled-row stripe. Local output row r (global R = base+r) is
// out[R] = Σ_j lo[j]·Lo[R-2j] + hi[j]·Hi[R-2j] over in-range taps, which
// needs coefficient rows (R-f+1+1)/2..R/2 — rows below the stripe start
// come from the north guard (the previous rank's bottom rows, passed in
// as g-row images; with periodic wrap for rank 0).
func colSynthesizeStripe(lo, hi, northLo, northHi *image.Image, bank *filter.Bank) *image.Image {
	rows, cols := lo.Rows, lo.Cols
	g := northLo.Rows
	f := bank.RecLen()
	out := image.New(rows*2, cols)
	// Coefficient row lookup with negative indices resolved via the
	// north guard (guard row g-1 is coefficient row -1, etc.).
	atLo := func(j, c int) float64 {
		if j >= 0 {
			return lo.At(j, c)
		}
		return northLo.At(g+j, c)
	}
	atHi := func(j, c int) float64 {
		if j >= 0 {
			return hi.At(j, c)
		}
		return northHi.At(g+j, c)
	}
	for r := 0; r < rows*2; r++ {
		// out[r] += Lo[k]·lo[j] where r = 2j + k → j = (r-k)/2 for even
		// r-k, k in [0,f).
		row := out.Row(r)
		for k := 0; k < f; k++ {
			if (r-k)%2 != 0 {
				continue
			}
			j := (r - k) / 2
			if j >= rows || j < -g {
				continue
			}
			var lk, hk float64
			if k < len(bank.RecLo) {
				lk = bank.RecLo[k]
			}
			if k < len(bank.RecHi) {
				hk = bank.RecHi[k]
			}
			for c := 0; c < cols; c++ {
				row[c] += lk*atLo(j, c) + hk*atHi(j, c)
			}
		}
	}
	return out
}
