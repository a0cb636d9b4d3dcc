package memmodel

import (
	"fmt"
	"strings"

	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/resnet"
)

// FigureConfig identifies one panel of Figure 1: a (batch size, image size)
// pair for which the peak memory vs recompute factor curves are drawn for
// every LinearResNet variant.
type FigureConfig struct {
	Panel     string // "1a".."1d"
	BatchSize int
	ImageSize int
}

// Figure1Panels are the four panels of Figure 1 in the paper.
var Figure1Panels = []FigureConfig{
	{Panel: "1a", BatchSize: 1, ImageSize: 224},
	{Panel: "1b", BatchSize: 8, ImageSize: 224},
	{Panel: "1c", BatchSize: 1, ImageSize: 500},
	{Panel: "1d", BatchSize: 8, ImageSize: 500},
}

// DefaultRhoGrid is the recompute-factor sweep used when regenerating the
// figure: from 1 (no checkpointing) to 3 in steps of 0.1.
func DefaultRhoGrid() []float64 {
	var rhos []float64
	for r := 1.0; r <= 3.0001; r += 0.1 {
		rhos = append(rhos, r)
	}
	return rhos
}

// Series is one curve of a Figure 1 panel: the memory-vs-rho points of one
// LinearResNet variant.
type Series struct {
	Variant resnet.Variant
	Chain   checkpoint.ChainSpec
	Points  []checkpoint.CurvePoint
}

// Panel is one reproduced panel of Figure 1.
type Panel struct {
	Config FigureConfig
	Rhos   []float64
	Series []Series
}

// Figure1Panel computes one panel of Figure 1: for every variant, the peak
// memory of optimal checkpointing as a function of the recompute factor.
func Figure1Panel(cfg FigureConfig, rhos []float64, acc Accounting, cost checkpoint.CostModel) (*Panel, error) {
	if len(rhos) == 0 {
		rhos = DefaultRhoGrid()
	}
	p := &Panel{Config: cfg, Rhos: append([]float64(nil), rhos...)}
	for _, v := range resnet.Variants {
		chain, err := LinearChain(v, cfg.ImageSize, cfg.BatchSize, acc)
		if err != nil {
			return nil, err
		}
		p.Series = append(p.Series, Series{
			Variant: v,
			Chain:   chain,
			Points:  checkpoint.MemoryVsRho(chain, rhos, cost),
		})
	}
	return p, nil
}

// Render prints the panel as a table: one row per rho, one column per
// variant, values in MB, with an asterisk marking points that exceed the 2 GB
// edge device.
func (p *Panel) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s — peak memory (MB) vs recompute factor, batch=%d image=%d\n",
		p.Config.Panel, p.Config.BatchSize, p.Config.ImageSize)
	fmt.Fprintf(&b, "%-8s", "rho")
	for _, s := range p.Series {
		fmt.Fprintf(&b, "%14s", s.Variant.String())
	}
	b.WriteString("\n")
	for i, rho := range p.Rhos {
		fmt.Fprintf(&b, "%-8.2f", rho)
		for _, s := range p.Series {
			pt := s.Points[i]
			mark := " "
			if pt.MemoryBytes > EdgeDeviceMemoryBytes {
				mark = "*"
			}
			fmt.Fprintf(&b, "%13.1f%s", float64(pt.MemoryBytes)/1e6, mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FitResult summarises, for one variant in one panel, whether the model fits
// the 2 GB device without checkpointing and the minimal recompute factor at
// which it fits with optimal checkpointing.
type FitResult struct {
	Config         FigureConfig
	Variant        resnet.Variant
	FitsAtRhoOne   bool
	MinRhoToFit    float64
	SlotsAtFit     int
	FitsEventually bool
}

// FitAnalysis reproduces the Section VI claims: which
// models fit the 2 GB device at rho=1 and what recompute factor makes every
// model fit. maxRho bounds the search (the paper discusses rho in [1, 2]; we
// search a little further to report the exact crossover).
func FitAnalysis(acc Accounting, cost checkpoint.CostModel, maxRho float64) ([]FitResult, error) {
	var out []FitResult
	for _, cfg := range Figure1Panels {
		for _, v := range resnet.Variants {
			chain, err := LinearChain(v, cfg.ImageSize, cfg.BatchSize, acc)
			if err != nil {
				return nil, err
			}
			rho, slots, ok := checkpoint.MinRhoToFit(chain, EdgeDeviceMemoryBytes, cost, maxRho)
			out = append(out, FitResult{
				Config:         cfg,
				Variant:        v,
				FitsAtRhoOne:   chain.MemoryNoCheckpoint() <= EdgeDeviceMemoryBytes,
				MinRhoToFit:    rho,
				SlotsAtFit:     slots,
				FitsEventually: ok,
			})
		}
	}
	return out, nil
}

// RenderFitAnalysis formats the fit analysis as a table.
func RenderFitAnalysis(results []FitResult) string {
	var b strings.Builder
	b.WriteString("Section VI fit analysis (2 GB edge device)\n")
	fmt.Fprintf(&b, "%-8s%-12s%-14s%-14s%-10s\n", "panel", "model", "fits at rho=1", "min rho to fit", "slots")
	for _, r := range results {
		rho := "never"
		if r.FitsEventually {
			rho = fmt.Sprintf("%.2f", r.MinRhoToFit)
		}
		fmt.Fprintf(&b, "%-8s%-12s%-14v%-14s%-10d\n", r.Config.Panel, r.Variant.String(), r.FitsAtRhoOne, rho, r.SlotsAtFit)
	}
	return b.String()
}
