package kernel

import (
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// AnalyzeColsRange column-filters the [c0, c1) column panel of src by
// both channels of bank and decimates the rows by two into lo and hi.
// It is the fast-path equivalent of wavelet.AnalyzeCols restricted to a
// column range.
//
// The output height is lo.Rows (normally src.Rows/2). A taller src
// holding a stripe with its south halo in the rows below it yields the
// stripe's own output rows, every one on the interior path, so they are
// bit-identical to the same rows of the full-level pass (see
// wavelet.PlanStripes).
//
// Instead of gathering one stride-N column at a time (one cache line
// touched per sample), the pass walks PanelWidth-column panels: for each
// output row it visits the filter-length source rows once, accumulating
// a whole panel of lo and hi coefficients per row segment. Consecutive
// output rows overlap in all but two source rows, so the panel's working
// set stays in L1. The destination row segments double as accumulators —
// no scratch is needed — and per-coefficient accumulation order over the
// taps is exactly the reference order, so outputs are bit-identical.
func AnalyzeColsRange(lo, hi, src *image.Image, bank *filter.Bank, ext filter.Extension, c0, c1 int) {
	rows := src.Rows
	half := lo.Rows
	fLo, fHi := bank.DecLo, bank.DecHi
	if len(fLo) != len(fHi) {
		// Different channel lengths (biorthogonal banks): the fused loop
		// below shares one interior split across both channels, so run
		// each channel as its own panel pass instead.
		colsChannelRange(lo, src, fLo, ext, c0, c1)
		colsChannelRange(hi, src, fHi, ext, c0, c1)
		return
	}
	f := len(fLo)
	for p0 := c0; p0 < c1; p0 += PanelWidth {
		p1 := p0 + PanelWidth
		if p1 > c1 {
			p1 = c1
		}
		for i := 0; i < half; i++ {
			dLo := lo.RowSeg(i, p0, p1)
			dHi := hi.RowSeg(i, p0, p1)
			for c := range dLo {
				dLo[c] = 0
				dHi[c] = 0
			}
			base := 2 * i
			if base+f <= rows {
				// Interior: the filter support is fully in range, the
				// same split the reference AnalyzeStep uses.
				for k := 0; k < f; k++ {
					s := src.RowSeg(base+k, p0, p1)
					hl, hh := fLo[k], fHi[k]
					for c, v := range s {
						dLo[c] += hl * v
						dHi[c] += hh * v
					}
				}
			} else {
				for k := 0; k < f; k++ {
					j, ok := ext.Index(base+k, rows)
					if !ok {
						continue
					}
					s := src.RowSeg(j, p0, p1)
					hl, hh := fLo[k], fHi[k]
					for c, v := range s {
						dLo[c] += hl * v
						dHi[c] += hh * v
					}
				}
			}
		}
	}
}

// colsChannelRange is the single-channel panel pass used when the two
// analysis channels differ in length. Per-coefficient tap order and the
// interior/border split match the reference AnalyzeStep for this
// channel's own filter length, preserving the bit-identity contract.
func colsChannelRange(dst, src *image.Image, h []float64, ext filter.Extension, c0, c1 int) {
	rows := src.Rows
	half := dst.Rows
	f := len(h)
	for p0 := c0; p0 < c1; p0 += PanelWidth {
		p1 := p0 + PanelWidth
		if p1 > c1 {
			p1 = c1
		}
		for i := 0; i < half; i++ {
			d := dst.RowSeg(i, p0, p1)
			for c := range d {
				d[c] = 0
			}
			base := 2 * i
			if base+f <= rows {
				for k := 0; k < f; k++ {
					s := src.RowSeg(base+k, p0, p1)
					w := h[k]
					for c, v := range s {
						d[c] += w * v
					}
				}
			} else {
				for k := 0; k < f; k++ {
					j, ok := ext.Index(base+k, rows)
					if !ok {
						continue
					}
					s := src.RowSeg(j, p0, p1)
					w := h[k]
					for c, v := range s {
						d[c] += w * v
					}
				}
			}
		}
	}
}
