// Command figure1 regenerates Figure 1 of "Training on the Edge": the peak
// training memory of every LinearResNet variant as a function of the
// recompute factor rho, for the four (batch size, image size) panels, using
// optimal (Revolve) checkpointing. It can also print the Section VI fit
// analysis (which models fit the 2 GB node at which rho).
//
// Usage:
//
//	figure1                        # all four panels on the default rho grid
//	figure1 -panel 1d              # only batch 8 / image 500
//	figure1 -batch 4 -image 350    # a custom panel
//	figure1 -fit                   # the Section VI fit analysis
//	figure1 -baseline sequential   # the checkpoint_sequential counterpart
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/memmodel"
)

func rhoGrid(max, step float64) []float64 {
	var out []float64
	for r := 1.0; r <= max+1e-9; r += step {
		out = append(out, r)
	}
	return out
}

func main() {
	panel := flag.String("panel", "all", "panel to print: 1a, 1b, 1c, 1d or all")
	batch := flag.Int("batch", 0, "custom batch size (overrides -panel)")
	image := flag.Int("image", 0, "custom image size (used with -batch)")
	maxRho := flag.Float64("rho-max", 3.0, "largest recompute factor in the sweep")
	step := flag.Float64("rho-step", 0.1, "recompute factor step")
	accounting := flag.String("accounting", "adam", "optimiser-state accounting: adam or sgd")
	fit := flag.Bool("fit", false, "print the Section VI fit analysis instead of the curves")
	baseline := flag.String("baseline", "revolve", "checkpointing scheme: revolve or sequential")
	flag.Parse()

	acc := memmodel.DefaultAccounting
	if *accounting == "sgd" {
		acc = memmodel.SGDAccounting
	}
	cost := checkpoint.DefaultCostModel
	rhos := rhoGrid(*maxRho, *step)

	if *fit {
		results, err := memmodel.FitAnalysis(acc, cost, *maxRho+1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(memmodel.RenderFitAnalysis(results, cost))
		return
	}

	curve := checkpoint.MemoryVsRho
	if *baseline == "sequential" {
		curve = checkpoint.SequentialMemoryVsRho
	}
	printPanel := func(cfg memmodel.FigureConfig) {
		p, err := memmodel.Figure1Panel(cfg, rhos, acc, cost, curve)
		if err != nil {
			log.Fatal(err)
		}
		if *baseline == "sequential" {
			fmt.Print("checkpoint_sequential baseline: ")
		}
		fmt.Println(p.Render())
	}

	if *batch > 0 && *image > 0 {
		printPanel(memmodel.FigureConfig{Panel: "custom", BatchSize: *batch, ImageSize: *image})
		return
	}
	for _, cfg := range memmodel.Figure1Panels {
		if *panel != "all" && *panel != cfg.Panel {
			continue
		}
		printPanel(cfg)
	}
}
