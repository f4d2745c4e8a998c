package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"wavelethpc/internal/fault"
	"wavelethpc/internal/image"
)

// scene returns the i-th seeded 8-bit Landsat-like scene of a run: the
// synthetic terrain quantized to whole grey levels, so a PGM of it is
// lossless and a reconstruction can be compared byte for byte.
func scene(rows, cols int, seed uint64, i int) *image.Image {
	im := image.Landsat(rows, cols, fault.SplitMix64(seed^uint64(i+1)*0x9e3779b97f4a7c15))
	for k, v := range im.Pix {
		im.Pix[k] = math.Round(v)
	}
	return im
}

// scenes returns n distinct scenes of one size.
func scenes(n, rows, cols int, seed uint64) []*image.Image {
	out := make([]*image.Image, n)
	for i := range out {
		out[i] = scene(rows, cols, seed, i)
	}
	return out
}

// digest is a SHA-256 over an image's shape and pixel bit patterns.
func digest(im *image.Image) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(im.Rows)<<32|uint64(im.Cols))
	h.Write(b[:])
	for r := 0; r < im.Rows; r++ {
		for _, v := range im.Row(r) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
