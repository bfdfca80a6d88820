package report

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"

	"github.com/mosaic-hpc/mosaic/internal/category"
)

// PNG figure rendering with the standard library only: a viridis-like
// color ramp over the Jaccard matrix (Figure 5) and horizontal bars for
// the metadata distribution (Figure 4). Cells are drawn as flat blocks —
// no text labels (the CSV/JSON exports carry the labels); the images are
// meant as quick visual artifacts of an analysis run.

// ramp maps v in [0,1] onto a perceptually ordered blue→green→yellow ramp.
func ramp(v float64) color.RGBA {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	// Three-stop linear ramp: #440f54 -> #21918c -> #fde725.
	type stop struct{ r, g, b float64 }
	stops := []stop{{0x44, 0x0f, 0x54}, {0x21, 0x91, 0x8c}, {0xfd, 0xe7, 0x25}}
	pos := v * 2
	i := int(pos)
	if i >= 2 {
		i = 1
		pos = 2
	}
	f := pos - float64(i)
	a, b := stops[i], stops[i+1]
	return color.RGBA{
		R: uint8(a.r + (b.r-a.r)*f),
		G: uint8(a.g + (b.g-a.g)*f),
		B: uint8(a.b + (b.b-a.b)*f),
		A: 255,
	}
}

// HeatmapPNG renders the pairwise Jaccard matrix of every category whose
// application rate reaches minRate, with cell pixels per matrix entry.
func HeatmapPNG(w io.Writer, agg *Aggregator, minRate float64, cell int) error {
	if cell < 1 {
		cell = 12
	}
	co := agg.Co()
	var labels []category.Category
	for _, l := range category.All() {
		if agg.SingleRate(l) >= minRate && co.Count(l) > 0 {
			labels = append(labels, l)
		}
	}
	n := len(labels)
	if n == 0 {
		return fmt.Errorf("report: no categories at rate >= %g", minRate)
	}
	const pad = 2
	size := n*cell + (n+1)*pad
	img := image.NewRGBA(image.Rect(0, 0, size, size))
	bg := color.RGBA{245, 245, 245, 255}
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			img.SetRGBA(x, y, bg)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c := ramp(co.Jaccard(labels[i], labels[j]))
			x0 := pad + j*(cell+pad)
			y0 := pad + i*(cell+pad)
			for y := y0; y < y0+cell; y++ {
				for x := x0; x < x0+cell; x++ {
					img.SetRGBA(x, y, c)
				}
			}
		}
	}
	return png.Encode(w, img)
}

// BarsPNG renders a horizontal bar chart of (label, value) pairs with
// values in [0,1]: one row per pair, bar length proportional to value.
func BarsPNG(w io.Writer, values []float64, barH, width int) error {
	if len(values) == 0 {
		return fmt.Errorf("report: no values to chart")
	}
	if barH < 2 {
		barH = 16
	}
	if width < 10 {
		width = 360
	}
	const pad = 4
	height := len(values)*(barH+pad) + pad
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	bg := color.RGBA{255, 255, 255, 255}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			img.SetRGBA(x, y, bg)
		}
	}
	for i, v := range values {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		c := ramp(0.25 + v/2)
		y0 := pad + i*(barH+pad)
		barW := int(v * float64(width-2*pad))
		for y := y0; y < y0+barH; y++ {
			for x := pad; x < pad+barW; x++ {
				img.SetRGBA(x, y, c)
			}
		}
	}
	return png.Encode(w, img)
}

// MetadataBarsPNG renders Figure 4 as PNG: the four metadata categories,
// single-run and all-runs rates interleaved.
func MetadataBarsPNG(w io.Writer, agg *Aggregator) error {
	single, all := agg.MetadataDist()
	order := []category.Category{
		category.MetaHighSpike, category.MetaMultipleSpikes,
		category.MetaHighDensity, category.MetaInsignificantLoad,
	}
	var values []float64
	for _, c := range order {
		values = append(values, single[c], all[c])
	}
	return BarsPNG(w, values, 18, 420)
}
