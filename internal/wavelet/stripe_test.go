package wavelet

import (
	"fmt"
	"testing"

	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet/kernel"
)

// TestStripePlan is the stripe planner's property test. For every
// catalog bank, level heights down to ones whose halo wraps the whole
// level, and 1-8 stripes:
//
//   - the owned output rows tile [0, rows/2) exactly once;
//   - every input span starts at 2·Out, is even, and is 2·Share + halo
//     rows long;
//   - the kernel column pass over the stripe's WrapRows span is
//     Float64bits-equal to the same rows of the full-level pass, over
//     every column and over a column sub-range.
//
// The hand-checked share split and wrap cases live with the gateway
// tiler that plans through this code (gateway TestStripeShares and
// TestExtractStripeWraps).
func TestStripePlan(t *testing.T) {
	const cols = kernel.PanelWidth + 5
	colRanges := [][2]int{{0, cols}, {3, cols - 7}}
	mixed := 0
	for _, name := range filter.Names() {
		bank, err := filter.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(bank.DecLo) != len(bank.DecHi) {
			mixed++
		}
		halo := Halo(bank.DecLen())
		for _, rows := range []int{2, 4, 6, 10, 16, 34} {
			level := randImage(rows, cols, int64(rows))
			fullLo, fullHi := image.New(rows/2, cols), image.New(rows/2, cols)
			kernel.AnalyzeColsRange(fullLo, fullHi, level, bank, filter.Periodic, 0, cols)
			for n := 1; n <= 8; n++ {
				plan := PlanStripes(rows, n, bank)
				next := 0
				for i, st := range plan {
					label := fmt.Sprintf("%s rows=%d n=%d stripe %d %+v", name, rows, n, i, st)
					if st.Out != next || st.Share < 1 {
						t.Fatalf("%s: owned rows do not continue at %d", label, next)
					}
					next += st.Share
					if st.In != 2*st.Out || st.Rows != 2*st.Share+halo || st.Rows%2 != 0 {
						t.Fatalf("%s: input span is not [2·Out, +2·Share+%d) of even height", label, halo)
					}
					span := WrapRows(level, st.In, st.Rows)
					for _, cr := range colRanges {
						lo, hi := image.New(st.Share, cols), image.New(st.Share, cols)
						kernel.AnalyzeColsRange(lo, hi, span, bank, filter.Periodic, cr[0], cr[1])
						w := cr[1] - cr[0]
						requireBitIdentical(t, label+" lo", fullLo.Sub(st.Out, cr[0], st.Share, w), lo.Sub(0, cr[0], st.Share, w))
						requireBitIdentical(t, label+" hi", fullHi.Sub(st.Out, cr[0], st.Share, w), hi.Sub(0, cr[0], st.Share, w))
					}
				}
				if next != rows/2 {
					t.Fatalf("%s rows=%d n=%d: stripes own %d output rows, want %d", name, rows, n, next, rows/2)
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatal("catalog has no mixed-length bank: the split-channel column path went untested")
	}
}
