package core

import (
	"fmt"

	"wavelethpc/internal/budget"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/nx"
	"wavelethpc/internal/wavelet"
	"wavelethpc/internal/wavelet/kernel"
)

// Block decomposition: the alternative the paper's Figure 3 argues
// against. The image is split into a gx×gy grid of rectangular blocks, so
// every level needs TWO guard-zone exchanges — an east guard for the row
// filtering (rows are no longer locally complete) and a south guard for
// the column filtering — doubling the per-level transaction count compared
// to striping.

// BlockGrid picks the most square gx×gy factorization of p with gx >= gy
// (wider than tall, like the images).
func BlockGrid(p int) (gx, gy int) {
	// gy is the largest divisor of p not exceeding sqrt(p).
	gy = 1
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			gy = d
		}
	}
	return p / gy, gy
}

// validateBlock checks the block decomposition's divisibility and guard
// constraints for every level.
func validateBlock(rows, cols, gx, gy, f, levels int) error {
	if err := wavelet.CheckDecomposable(rows, cols, levels); err != nil {
		return err
	}
	dr := rows >> uint(levels-1)
	dc := cols >> uint(levels-1)
	if dr%gy != 0 || dc%gx != 0 {
		return fmt.Errorf("core: deepest level %dx%d not divisible by %dx%d block grid", dr, dc, gx, gy)
	}
	br, bc := dr/gy, dc/gx
	if br%2 != 0 || bc%2 != 0 {
		return fmt.Errorf("core: deepest block %dx%d has odd dimension", br, bc)
	}
	if halo := wavelet.Halo(f); halo > br || halo > bc {
		return fmt.Errorf("core: filter length %d needs %d guard lines but deepest blocks are %dx%d", f, halo, br, bc)
	}
	return nil
}

// BlockDecompose runs the block-distributed SPMD decomposition on the
// simulated machine. Ranks are laid out row-major over the block grid.
// Like DistributedDecompose it moves real pixel data, so results are
// verified against the sequential transform.
func BlockDecompose(im *image.Image, cfg DistConfig) (*DistResult, error) {
	if cfg.Bank == nil {
		return nil, errNilBank
	}
	p := cfg.Procs
	f := cfg.Bank.DecLen()
	gx, gy := BlockGrid(p)
	if err := validateBlock(im.Rows, im.Cols, gx, gy, f, cfg.Levels); err != nil {
		return nil, err
	}
	cost := cfg.Machine.Cost
	halo := wavelet.Halo(f)
	collected := make([]stripeBands, p)

	prog := func(r *nx.Rank) {
		id := r.ID()
		bx, by := id%gx, id/gx
		var ph rankPhases

		// --- Scatter: root ships each rank its block -----------------
		br0, bc0 := im.Rows/gy, im.Cols/gx
		var parts [][]float64
		if id == 0 {
			parts = make([][]float64, p)
			for i := 0; i < p; i++ {
				ibx, iby := i%gx, i/gx
				sub := im.Sub(iby*br0, ibx*bc0, br0, bc0)
				parts[i] = flattenRows(sub, 0, br0)
			}
			r.Compute(float64(im.Rows*im.Cols*8)*cost.MemByteTime, budget.UniqueRedundancy)
		}
		block := imageFromFlat(br0, bc0, r.Scatter(0, parts))
		ph.afterScatter = r.Clock()

		// Grid-neighbor rank helpers (periodic wrap in both directions).
		east := by*gx + (bx+1)%gx
		west := by*gx + (bx-1+gx)%gx
		south := ((by+1)%gy)*gx + bx
		north := ((by-1+gy)%gy)*gx + bx

		myBands := stripeBands{details: make([][3][]float64, cfg.Levels)}
		for l := 0; l < cfg.Levels; l++ {
			r.ComputeOps(50, cost.FlopTime, budget.Duplication)
			r.ComputeOps(60, cost.FlopTime, budget.UniqueRedundancy)

			// East guard exchange for the row filtering: blocks no
			// longer hold complete rows (Figure 3's extra transaction).
			rows, cols := block.Rows, block.Cols/2
			guardStart := r.Clock()
			gw := min(f, block.Cols)
			westCols := flattenCols(block, 0, gw)
			eastCols := flattenCols(block, block.Cols-gw, block.Cols)
			r.Compute(float64(len(westCols)+len(eastCols))*8*cost.MemByteTime, budget.UniqueRedundancy)
			r.SendFloats(west, tagGuardUp, westCols)
			r.SendFloats(east, tagGuardDown, eastCols)
			eastGuard, _ := r.RecvFloats(east, tagGuardUp)
			r.RecvFloats(west, tagGuardDown) // symmetric, unused by analysis
			ph.guard += r.Clock() - guardStart

			// Row pass over [block | east guard]: every owned output
			// reads the guard on the row kernel's interior path, and the
			// halo/2 outputs past the owned half are dropped. The
			// intermediates keep halo spare rows for the south guard.
			lExt := image.New(rows+halo, cols)
			hExt := image.New(rows+halo, cols)
			x := make([]float64, block.Cols+halo)
			dLo := make([]float64, len(x)/2)
			dHi := make([]float64, len(x)/2)
			for i := 0; i < rows; i++ {
				copy(x, block.Row(i))
				copy(x[block.Cols:], eastGuard[i*gw:i*gw+halo])
				kernel.AnalyzeRow(x, cfg.Bank, filter.Periodic, dLo, dHi)
				copy(lExt.Row(i), dLo)
				copy(hExt.Row(i), dHi)
			}
			lImg, hImg := lExt.Sub(0, 0, rows, cols), hExt.Sub(0, 0, rows, cols)
			outputs := 2 * rows * cols
			r.Compute(float64(outputs)*(float64(f)*cost.MACTime+cost.CoefTime), budget.Useful)

			// South guard exchange on the intermediate images for the
			// column filtering.
			guardStart = r.Clock()
			gh := min(f, rows)
			topGuard := packRows(0, gh, lImg, hImg)
			botGuard := packRows(rows-gh, rows, lImg, hImg)
			r.Compute(float64(len(topGuard)+len(botGuard))*8*cost.MemByteTime, budget.UniqueRedundancy)
			r.SendFloats(north, tagGuardUp+2, topGuard)
			r.SendFloats(south, tagGuardDown+2, botGuard)
			southData, _ := r.RecvFloats(south, tagGuardUp+2)
			r.RecvFloats(north, tagGuardDown+2)
			copy(lExt.Pix[rows*cols:], southData[:halo*cols])
			copy(hExt.Pix[rows*cols:], southData[gh*cols:(gh+halo)*cols])
			ph.guard += r.Clock() - guardStart

			// Column pass with the south guard.
			half := rows / 2
			ll := image.New(half, cols)
			lh := image.New(half, cols)
			hl := image.New(half, cols)
			hh := image.New(half, cols)
			stripeCols(ll, lh, lExt, cfg.Bank, 0, half)
			stripeCols(hl, hh, hExt, cfg.Bank, 0, half)
			outputs = 4 * half * cols
			r.Compute(float64(outputs)*(float64(f)*cost.MACTime+cost.CoefTime), budget.Useful)

			myBands.details[cfg.Levels-1-l] = [3][]float64{lh.Pix, hl.Pix, hh.Pix}
			block = ll
			r.Barrier()
		}
		myBands.approx = flattenRows(block, 0, block.Rows)
		ph.afterDecompose = r.Clock()

		// --- Gather: one packed message per rank ----------------------
		gatherBands(r, myBands, collected, cost)
		ph.done = r.Clock()
		r.SetResult(ph)
	}

	sim, err := nx.Run(nx.Config{Machine: cfg.Machine, Placement: cfg.Placement, Procs: p, Trace: cfg.Trace}, prog)
	if err != nil {
		return nil, err
	}
	res := reducePhases(sim)
	res.Pyramid = assembleBlocks(collected, im.Rows, im.Cols, gx, gy, cfg)
	return res, nil
}

// assembleBlocks stitches per-rank blocks of a gx×gy grid (ranks
// row-major) back into a full pyramid; a stripe layout is the 1×p grid.
func assembleBlocks(collected []stripeBands, rows, cols, gx, gy int, cfg DistConfig) *wavelet.Pyramid {
	pyr := &wavelet.Pyramid{Bank: cfg.Bank, Ext: filter.Periodic, Levels: make([]wavelet.DetailBands, cfg.Levels)}
	ar := rows >> uint(cfg.Levels)
	ac := cols >> uint(cfg.Levels)
	pyr.Approx = image.New(ar, ac)
	for rank := range collected {
		bx, by := rank%gx, rank/gx
		placeFlatAt(pyr.Approx, by*ar/gy, bx*ac/gx, collected[rank].approx, ac/gx)
	}
	for l := 0; l < cfg.Levels; l++ {
		br := rows >> uint(cfg.Levels-l)
		bc := cols >> uint(cfg.Levels-l)
		db := wavelet.DetailBands{LH: image.New(br, bc), HL: image.New(br, bc), HH: image.New(br, bc)}
		for rank := range collected {
			bx, by := rank%gx, rank/gx
			placeFlatAt(db.LH, by*br/gy, bx*bc/gx, collected[rank].details[l][0], bc/gx)
			placeFlatAt(db.HL, by*br/gy, bx*bc/gx, collected[rank].details[l][1], bc/gx)
			placeFlatAt(db.HH, by*br/gy, bx*bc/gx, collected[rank].details[l][2], bc/gx)
		}
		pyr.Levels[l] = db
	}
	return pyr
}

// placeFlatAt copies a flattened block of the given width into dst at
// (r0, c0).
func placeFlatAt(dst *image.Image, r0, c0 int, flat []float64, cols int) {
	rows := len(flat) / cols
	for r := 0; r < rows; r++ {
		copy(dst.Row(r0 + r)[c0:c0+cols], flat[r*cols:(r+1)*cols])
	}
}

// flattenCols copies columns [c0,c1) of im, row-major within the slab.
func flattenCols(im *image.Image, c0, c1 int) []float64 {
	w := c1 - c0
	out := make([]float64, 0, im.Rows*w)
	for r := 0; r < im.Rows; r++ {
		out = append(out, im.Row(r)[c0:c1]...)
	}
	return out
}
