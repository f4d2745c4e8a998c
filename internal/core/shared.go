// Package core implements the paper's parallel wavelet decomposition
// algorithms:
//
//   - a real shared-memory parallel decomposition using goroutines (the
//     modern stand-in for the paper's coarse-grain parallelism, producing
//     genuine wall-clock speedups on multicore hosts);
//   - the simulated Intel Paragon SPMD implementation with striped domain
//     decomposition, per-level guard-zone exchange, and snake-like versus
//     naive rank placement (the paper's Section 4.2 and Figures 3-7);
//   - the block-decomposition variant the paper argues against (Figure 3),
//     kept as an ablation;
//   - the experiment drivers that regenerate Appendix A's figures and
//     Table 1.
package core

import (
	"runtime"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
	"wavelethpc/internal/wavelet/kernel"
)

// ParallelDecompose performs a levels-deep Mallat decomposition of im
// using the given number of worker goroutines (0 means GOMAXPROCS). A
// persistent pool (one goroutine set for the whole transform) hands out
// row ranges for the row pass and column-panel ranges for the column
// pass, and every range is filtered by the same internal/wavelet/kernel
// code the sequential fast path uses. Scratch comes from the shared
// kernel arena pool, so only the retained pyramid bands are allocated.
//
// tol is the drift tolerance: when (bank, ext, tol) admit the lifting
// tier (wavelet.LiftingFor), each level runs the fused lifting sweeps —
// one scatter row pass, then the in-place column pass over disjoint
// panels. Both tiers are deterministic in the worker count: every range
// is column- or row-independent, so the output is bit-identical to the
// corresponding sequential tier (wavelet.DecomposeTol), and with tol = 0
// to wavelet.Decompose.
func ParallelDecompose(im *image.Image, bank *filter.Bank, ext filter.Extension, levels, workers int, tol float64) (*wavelet.Pyramid, error) {
	if err := wavelet.CheckDecomposable(im.Rows, im.Cols, levels); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sch := wavelet.LiftingFor(bank, ext, tol)
	pool := newWorkerPool(workers)
	defer pool.Close()
	ar := kernel.GetArena()
	defer kernel.PutArena(ar)
	p := wavelet.NewPyramid(im.Rows, im.Cols, bank, ext, levels)
	cur := im
	for l := 0; l < levels; l++ {
		rows, cols := cur.Rows, cur.Cols
		src := cur
		d := &p.Levels[levels-1-l]
		ll := p.Approx
		if l < levels-1 {
			ll = ar.LL(l%2, rows/2, cols/2)
		}
		if sch != nil {
			pool.Ranges(rows, func(r0, r1 int) {
				kernel.LiftRowsRange(ll, d.LH, d.HL, d.HH, src, sch, r0, r1)
			})
			pool.Ranges(cols/2, func(c0, c1 int) {
				kernel.LiftColsRange(ll, d.LH, sch, c0, c1)
				kernel.LiftColsRange(d.HL, d.HH, sch, c0, c1)
			})
		} else {
			li, hi := ar.Intermediate(rows, cols/2)
			pool.Ranges(rows, func(r0, r1 int) {
				kernel.AnalyzeRowsRange(li, hi, src, bank, ext, r0, r1)
			})
			pool.Ranges(cols/2, func(c0, c1 int) {
				kernel.AnalyzeColsRange(ll, d.LH, li, bank, ext, c0, c1)
				kernel.AnalyzeColsRange(d.HL, d.HH, hi, bank, ext, c0, c1)
			})
		}
		cur = ll
	}
	return p, nil
}

// ParallelReconstruct inverts ParallelDecompose with the given worker
// count (0 means GOMAXPROCS). One persistent pool serves every level.
func ParallelReconstruct(p *wavelet.Pyramid, workers int) *image.Image {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := newWorkerPool(workers)
	defer pool.Close()
	cur := p.Approx
	for _, d := range p.Levels {
		cur = parallelSynthesize2D(pool, &wavelet.Subbands{LL: cur, LH: d.LH, HL: d.HL, HH: d.HH}, p.Bank, p.Ext)
	}
	return cur
}

func parallelSynthesize2D(pool *workerPool, sb *wavelet.Subbands, bank *filter.Bank, ext filter.Extension) *image.Image {
	rows, cols := sb.LL.Rows, sb.LL.Cols
	// Column synthesis: merge (LL,LH) -> L and (HL,HH) -> H, parallel
	// over columns.
	l := image.New(rows*2, cols)
	h := image.New(rows*2, cols)
	pool.Ranges(cols, func(c0, c1 int) {
		colLo := make([]float64, rows)
		colHi := make([]float64, rows)
		full := make([]float64, rows*2)
		merge := func(lo, hi, dst *image.Image, c int) {
			colLo = lo.Col(c, colLo)
			colHi = hi.Col(c, colHi)
			for i := range full {
				full[i] = 0
			}
			wavelet.SynthesizeStep(colLo, bank.RecLo, ext, full)
			wavelet.SynthesizeStep(colHi, bank.RecHi, ext, full)
			dst.SetCol(c, full)
		}
		for c := c0; c < c1; c++ {
			merge(sb.LL, sb.LH, l, c)
			merge(sb.HL, sb.HH, h, c)
		}
	})
	// Row synthesis: merge (L,H) -> output, parallel over rows.
	out := image.New(rows*2, cols*2)
	pool.Ranges(rows*2, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			dst := out.Row(r)
			wavelet.SynthesizeStep(l.Row(r), bank.RecLo, ext, dst)
			wavelet.SynthesizeStep(h.Row(r), bank.RecHi, ext, dst)
		}
	})
	return out
}
