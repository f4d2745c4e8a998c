package main

import (
	"bytes"
	"fmt"
	"math"

	"wavelethpc/internal/image"
	"wavelethpc/internal/wavelet"
)

// samePyramid reports the first band of got whose shape or Float64bits
// differ from want.
func samePyramid(got, want *wavelet.Pyramid) error {
	if got == nil {
		return fmt.Errorf("no pyramid")
	}
	if got.Depth() != want.Depth() {
		return fmt.Errorf("depth %d, want %d", got.Depth(), want.Depth())
	}
	if !image.EqualBits(got.Approx, want.Approx) {
		return fmt.Errorf("approximation band differs")
	}
	for l, w := range want.Levels {
		g := got.Levels[l]
		for _, b := range []struct {
			name       string
			got, wantB *image.Image
		}{{"LH", g.LH, w.LH}, {"HL", g.HL, w.HL}, {"HH", g.HH, w.HH}} {
			if !image.EqualBits(b.got, b.wantB) {
				return fmt.Errorf("level %d %s band differs", l, b.name)
			}
		}
	}
	return nil
}

// pgmBytes encodes im as the service's PGM response would carry it.
func pgmBytes(im *image.Image) ([]byte, error) {
	var buf bytes.Buffer
	if err := image.WritePGM(&buf, im); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// samePGM reports whether got, written as a PGM, equals want byte for
// byte.
func samePGM(got *image.Image, want []byte) error {
	if got == nil {
		return fmt.Errorf("no image")
	}
	b, err := pgmBytes(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, want) {
		return fmt.Errorf("PGM differs from the input's")
	}
	return nil
}

// within reports the first pixel where got and want differ by more than
// tol.
func within(got, want *image.Image, tol float64) error {
	if got == nil || got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("reconstruction shape differs")
	}
	for r := 0; r < want.Rows; r++ {
		g, w := got.Row(r), want.Row(r)
		for c := range w {
			if d := math.Abs(g[c] - w[c]); !(d <= tol) {
				return fmt.Errorf("pixel (%d,%d) off by %g, tolerance %g", r, c, d, tol)
			}
		}
	}
	return nil
}
