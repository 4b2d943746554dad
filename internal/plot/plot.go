// Package plot renders small ASCII charts for the benchmark harness:
// scatter plots for Figures 6 and 8 and multi-series line charts for
// the CDF figures (5 and 7). The goal is not beauty but a terminal
// rendering faithful enough to eyeball the paper's qualitative claims
// (diagonal alignment, left-shifted CDFs) without external tooling.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is a named point set. Successive series are drawn with
// distinct marks ('*', 'o', '+', 'x', ...).
type Series struct {
	Name   string
	Points [][2]float64
}

var marks = []byte{'*', 'o', '+', 'x', '#', '@'}

// Options controls the canvas.
type Options struct {
	Width, Height int  // character cells (defaults 64×20)
	LogX, LogY    bool // logarithmic axes (values < 1 clamp to 1)
	Title         string
	XLabel        string
	YLabel        string
	// Diagonal draws the y=x reference line (Figures 6 and 8).
	Diagonal bool
}

func (o Options) withDefaults() Options {
	if o.Width <= 0 {
		o.Width = 64
	}
	if o.Height <= 0 {
		o.Height = 20
	}
	return o
}

// Render draws the series onto one canvas.
func Render(series []Series, opt Options) string {
	opt = opt.withDefaults()

	tx := func(v float64) float64 { return v }
	ty := tx
	if opt.LogX {
		tx = logClamp
	}
	if opt.LogY {
		ty = logClamp
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, p := range s.Points {
			x, y := tx(p[0]), ty(p[1])
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if math.IsInf(minX, 1) { // no points at all
		minX, maxX, minY, maxY = 0, 1, 0, 1
	}
	if opt.Diagonal {
		lo := math.Min(minX, minY)
		hi := math.Max(maxX, maxY)
		minX, minY, maxX, maxY = lo, lo, hi, hi
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, opt.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", opt.Width))
	}
	toCol := func(x float64) int {
		c := int(math.Round((x - minX) / (maxX - minX) * float64(opt.Width-1)))
		return clamp(c, 0, opt.Width-1)
	}
	toRow := func(y float64) int {
		r := int(math.Round((y - minY) / (maxY - minY) * float64(opt.Height-1)))
		return clamp(opt.Height-1-r, 0, opt.Height-1)
	}

	if opt.Diagonal {
		for c := 0; c < opt.Width; c++ {
			x := minX + float64(c)/float64(opt.Width-1)*(maxX-minX)
			grid[toRow(x)][c] = '.'
		}
	}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for _, p := range s.Points {
			grid[toRow(ty(p[1]))][toCol(tx(p[0]))] = mark
		}
	}

	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", marks[si%len(marks)], s.Name))
	}
	if len(legend) > 0 {
		fmt.Fprintf(&b, "legend: %s\n", strings.Join(legend, "   "))
	}

	yHi, yLo := axisLabel(maxY, opt.LogY), axisLabel(minY, opt.LogY)
	labelW := len(yHi)
	if len(yLo) > labelW {
		labelW = len(yLo)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", labelW)
		switch i {
		case 0:
			label = pad(yHi, labelW)
		case opt.Height - 1:
			label = pad(yLo, labelW)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", labelW), strings.Repeat("-", opt.Width))
	xHi := axisLabel(maxX, opt.LogX)
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", labelW),
		axisLabel(minX, opt.LogX),
		strings.Repeat(" ", max(1, opt.Width-len(axisLabel(minX, opt.LogX))-len(xHi))),
		xHi)
	if opt.XLabel != "" || opt.YLabel != "" {
		fmt.Fprintf(&b, "x: %s   y: %s\n", opt.XLabel, opt.YLabel)
	}
	return b.String()
}

func logClamp(v float64) float64 {
	if v < 1 {
		v = 1
	}
	return math.Log10(v)
}

func axisLabel(v float64, logged bool) string {
	if logged {
		return fmt.Sprintf("%.3g", math.Pow(10, v))
	}
	return fmt.Sprintf("%.3g", v)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
