package wavelet

import (
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
)

// Stripe planning: the one owner of the row-stripe/halo geometry behind
// every striped forward pass — the Paragon simulator's SPMD programs
// (internal/core), the gateway's tiling coordinator and its tile/scale
// model. The column analysis is causal: output row j reads input rows
// 2j .. 2j+f-1. A stripe owning output rows [o, o+s) therefore reads
// input rows [2o, 2o+2s+f-2), and the rows below its own 2s are its
// south halo, taken modulo the level height — the periodic extension,
// reproduced exactly even when the halo wraps a small level several
// times. Run over [stripe | halo], the kernel layer's column pass takes
// the interior path for every owned output row, so a stripe's outputs
// are Float64bits-identical to the same rows of the full-level pass.

// Halo returns the number of rows below a stripe that the causal
// analysis of a filter with support f reads: max(f-2, 0), rounded up to
// even so the stripe plus its halo stays decomposable. Forward passes
// call it with bank.DecLen().
func Halo(f int) int {
	h := f - 2
	if h < 0 {
		h = 0
	}
	return (h + 1) &^ 1
}

// Stripe is one stripe of a level's plan.
type Stripe struct {
	// Out and Share: the stripe owns output rows [Out, Out+Share) of the
	// next level.
	Out, Share int
	// In and Rows: it reads input rows [In, In+Rows) of the level,
	// wrapping modulo the level height; In = 2·Out and Rows = 2·Share
	// plus the bank's Halo.
	In, Rows int
}

// PlanStripes splits a level of the given (even) height into at most n
// stripes for bank's analysis. The level's rows/2 output rows are shared
// as evenly as possible, earlier stripes taking the remainder, and every
// stripe owns at least one (n is capped at rows/2).
func PlanStripes(rows, n int, bank *filter.Bank) []Stripe {
	half := rows / 2
	if n > half {
		n = half
	}
	if n < 1 {
		n = 1
	}
	halo := Halo(bank.DecLen())
	base, rem := half/n, half%n
	plan := make([]Stripe, n)
	out := 0
	for i := range plan {
		share := base
		if i < rem {
			share++
		}
		plan[i] = Stripe{Out: out, Share: share, In: 2 * out, Rows: 2*share + halo}
		out += share
	}
	return plan
}

// WrapRows copies h full-width rows of im starting at r0, wrapping row
// indices modulo im.Rows — a stripe's [rows | halo] input span.
func WrapRows(im *image.Image, r0, h int) *image.Image {
	out := image.New(h, im.Cols)
	for m := 0; m < h; m++ {
		copy(out.Row(m), im.Row((r0+m)%im.Rows))
	}
	return out
}
