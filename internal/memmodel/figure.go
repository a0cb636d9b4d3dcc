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
// figure: from 1 (no checkpointing) to 3 in steps of 0.1, in the paper's
// convention (see tapedShare).
func DefaultRhoGrid() []float64 {
	var rhos []float64
	for r := 1.0; r <= 3.0001; r += 0.1 {
		rhos = append(rhos, r)
	}
	return rhos
}

// tapedShare is the taped forwards' share of the store-all baseline,
// 1/(1+BackwardRatio). The paper's rho leaves out the forward each adjoint
// step re-runs to tape its stage; CostModel counts it. So a checkpointed
// schedule's rho here is its paper rho plus tapedShare, and plain
// backpropagation is 1 in both conventions.
func tapedShare(cost checkpoint.CostModel) float64 { return 1 / cost.BaselineTime(1) }

// Series is one curve of a Figure 1 panel: the memory-vs-rho points of one
// LinearResNet variant.
type Series struct {
	Variant resnet.Variant
	Chain   checkpoint.ChainSpec
	Points  []checkpoint.CurvePoint
}

// Panel is one reproduced panel of Figure 1. Rhos is the paper's grid; each
// point's Rho is the same budget in CostModel's convention.
type Panel struct {
	Config FigureConfig
	Rhos   []float64
	Series []Series
}

// Figure1Panel computes one panel of Figure 1: for every variant, the peak
// memory of a checkpointing scheme as a function of the recompute factor.
// curve is the scheme, checkpoint.MemoryVsRho for optimal checkpointing or
// checkpoint.SequentialMemoryVsRho for the checkpoint_sequential baseline;
// each row of the paper's grid is evaluated at rho + tapedShare.
func Figure1Panel(cfg FigureConfig, rhos []float64, acc Accounting, cost checkpoint.CostModel,
	curve func(checkpoint.ChainSpec, []float64, checkpoint.CostModel) []checkpoint.CurvePoint) (*Panel, error) {
	if len(rhos) == 0 {
		rhos = DefaultRhoGrid()
	}
	p := &Panel{Config: cfg, Rhos: append([]float64(nil), rhos...)}
	engine := make([]float64, len(rhos))
	for i, rho := range rhos {
		engine[i] = rho + tapedShare(cost)
	}
	for _, v := range resnet.Variants {
		chain, err := LinearChain(v, cfg.ImageSize, cfg.BatchSize, acc)
		if err != nil {
			return nil, err
		}
		p.Series = append(p.Series, Series{
			Variant: v,
			Chain:   chain,
			Points:  curve(chain, engine, cost),
		})
	}
	return p, nil
}

// Render prints the panel as a table: one row per rho, in the paper's
// convention and in this engine's, one column per variant, values in MB,
// with an asterisk marking points that exceed the 2 GB edge device.
func (p *Panel) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s — peak memory (MB) vs recompute factor, batch=%d image=%d\n",
		p.Config.Panel, p.Config.BatchSize, p.Config.ImageSize)
	fmt.Fprintf(&b, "%-8s%-8s", "rho", "engine")
	for _, s := range p.Series {
		fmt.Fprintf(&b, "%14s", s.Variant.String())
	}
	b.WriteString("\n")
	for i, rho := range p.Rhos {
		fmt.Fprintf(&b, "%-8.2f%-8.2f", rho, p.Series[0].Points[i].Rho)
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
// the 2 GB device without checkpointing and the minimal recompute factor, in
// CostModel's convention, at which it fits with optimal checkpointing.
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
// model fit. maxRho bounds the search in the paper's convention, like the
// figure's grid (the paper discusses rho in [1, 2]; we search a little
// further to report the exact crossover).
func FitAnalysis(acc Accounting, cost checkpoint.CostModel, maxRho float64) ([]FitResult, error) {
	var out []FitResult
	for _, cfg := range Figure1Panels {
		for _, v := range resnet.Variants {
			chain, err := LinearChain(v, cfg.ImageSize, cfg.BatchSize, acc)
			if err != nil {
				return nil, err
			}
			rho, slots, ok := checkpoint.MinRhoToFit(chain, EdgeDeviceMemoryBytes, cost, maxRho+tapedShare(cost))
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

// RenderFitAnalysis formats the fit analysis as a table, with the minimal
// recompute factor in the paper's convention and in the engine's.
func RenderFitAnalysis(results []FitResult, cost checkpoint.CostModel) string {
	var b strings.Builder
	b.WriteString("Section VI fit analysis (2 GB edge device)\n")
	fmt.Fprintf(&b, "%-8s%-12s%-15s%-17s%-18s%s\n", "panel", "model", "fits at rho=1",
		"min rho (paper)", "min rho (engine)", "slots")
	for _, r := range results {
		paper, engine := "never", "never"
		if r.FitsEventually {
			// The paper prices one sweep storing every state at 1, whatever
			// its slots.
			p := max(1, r.MinRhoToFit-tapedShare(cost))
			paper, engine = fmt.Sprintf("%.2f", p), fmt.Sprintf("%.2f", r.MinRhoToFit)
		}
		fmt.Fprintf(&b, "%-8s%-12s%-15v%-17s%-18s%d\n", r.Config.Panel, r.Variant.String(), r.FitsAtRhoOne,
			paper, engine, r.SlotsAtFit)
	}
	return b.String()
}
