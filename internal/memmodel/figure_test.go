package memmodel

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/resnet"
)

func TestLinearChainConsistency(t *testing.T) {
	chain, err := LinearChain(resnet.ResNet50, 224, 1, DefaultAccounting)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Length != 50 {
		t.Fatalf("LinearResNet50 length %d, want 50", chain.Length)
	}
	fp, err := Model(resnet.ResNet50, 224, 1, DefaultAccounting)
	if err != nil {
		t.Fatal(err)
	}
	if chain.WeightBytes != fp.WeightBytes {
		t.Fatal("LinearResNet weight memory must equal the full model's")
	}
	// Total activation memory is preserved up to integer division remainder.
	total := chain.ActivationBytes * int64(chain.Length)
	if total > fp.ActBytes || fp.ActBytes-total > int64(chain.Length) {
		t.Fatalf("LinearResNet activation total %d drifted from %d", total, fp.ActBytes)
	}
	if _, err := LinearChain(resnet.Variant(9), 224, 1, DefaultAccounting); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestFigure1PanelStructure(t *testing.T) {
	panel, err := Figure1Panel(Figure1Panels[0], nil, DefaultAccounting, checkpoint.DefaultCostModel, checkpoint.MemoryVsRho)
	if err != nil {
		t.Fatal(err)
	}
	if len(panel.Series) != len(resnet.Variants) {
		t.Fatalf("expected %d series, got %d", len(resnet.Variants), len(panel.Series))
	}
	if len(panel.Rhos) != len(DefaultRhoGrid()) {
		t.Fatalf("default rho grid not applied")
	}
	for _, s := range panel.Series {
		if len(s.Points) != len(panel.Rhos) {
			t.Fatalf("series %s has %d points for %d rhos", s.Variant, len(s.Points), len(panel.Rhos))
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].MemoryBytes > s.Points[i-1].MemoryBytes {
				t.Fatalf("series %s memory increased with rho", s.Variant)
			}
		}
	}
	if out := panel.Render(); !strings.Contains(out, "Figure 1a") {
		t.Fatalf("panel render missing header:\n%s", out)
	}
}

func TestFigure1AllPanels(t *testing.T) {
	var panels []*Panel
	for _, cfg := range Figure1Panels {
		p, err := Figure1Panel(cfg, []float64{1, 1.5, 2, 2.5, 3}, DefaultAccounting, checkpoint.DefaultCostModel, checkpoint.MemoryVsRho)
		if err != nil {
			t.Fatal(err)
		}
		panels = append(panels, p)
	}
	if len(panels) != 4 {
		t.Fatalf("expected 4 panels, got %d", len(panels))
	}
	// Panel 1a (batch 1, image 224): everything fits at rho=1 — the only
	// configuration for which that is true, per Section VI.
	for _, s := range panels[0].Series {
		if s.Points[0].MemoryBytes > EdgeDeviceMemoryBytes {
			t.Errorf("panel 1a: %s should fit at rho=1", s.Variant)
		}
	}
	// Panels 1b-1d: the deepest model does not fit at rho=1.
	for _, p := range panels[1:] {
		last := p.Series[len(p.Series)-1]
		if last.Points[0].MemoryBytes <= EdgeDeviceMemoryBytes {
			t.Errorf("panel %s: ResNet-152 unexpectedly fits at rho=1", p.Config.Panel)
		}
	}
	// By rho=3 every model in every panel fits comfortably.
	for _, p := range panels {
		for _, s := range p.Series {
			lastPt := s.Points[len(s.Points)-1]
			if lastPt.MemoryBytes > EdgeDeviceMemoryBytes {
				t.Errorf("panel %s: %s still does not fit at rho=3 (%.0f MB)",
					p.Config.Panel, s.Variant, float64(lastPt.MemoryBytes)/1e6)
			}
		}
	}
}

func TestFigure1FitClaims(t *testing.T) {
	// E9: the qualitative Section VI claims. (a) Without checkpointing only
	// the batch-1/image-224 panel fits entirely. (b) A recompute factor
	// between 1.5 and 2.5 brings every model in every panel under 2 GB.
	results, err := FitAnalysis(DefaultAccounting, checkpoint.DefaultCostModel, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4*len(resnet.Variants) {
		t.Fatalf("expected %d results, got %d", 4*len(resnet.Variants), len(results))
	}
	worst := 0.0
	for _, r := range results {
		if r.Config.Panel == "1a" {
			if !r.FitsAtRhoOne {
				t.Errorf("panel 1a %s should fit without checkpointing", r.Variant)
			}
			continue
		}
		if !r.FitsEventually {
			t.Errorf("panel %s %s never fits within rho=4", r.Config.Panel, r.Variant)
			continue
		}
		if r.MinRhoToFit > worst {
			worst = r.MinRhoToFit
		}
	}
	if worst < 1.2 || worst > 2.6 {
		t.Errorf("worst-case recompute factor to fit everything is %.2f; the paper's narrative puts it between 1.5 and 2 (we accept up to 2.6 given the different backward-cost accounting)", worst)
	}
	if out := RenderFitAnalysis(results, checkpoint.DefaultCostModel); !strings.Contains(out, "1d") {
		t.Fatal("fit analysis render incomplete")
	}
}

func TestFitAnalysisFigure1bClaim(t *testing.T) {
	// Text claim attached to the batch-8 panels: at rho around 1.6-2 all
	// models fit, whereas at rho=1 even ResNet-18 does not fit at image 500.
	chain18, err := LinearChain(resnet.ResNet18, 500, 8, DefaultAccounting)
	if err != nil {
		t.Fatal(err)
	}
	if chain18.MemoryNoCheckpoint() <= EdgeDeviceMemoryBytes {
		t.Error("ResNet-18 at batch 8 / image 500 should not fit without checkpointing")
	}
	rho, _, ok := checkpoint.MinRhoToFit(chain18, EdgeDeviceMemoryBytes, checkpoint.DefaultCostModel, 4)
	if !ok || rho > 1.7 {
		t.Errorf("ResNet-18 at batch 8 / image 500 should fit with a modest recompute factor, needed %.2f", rho)
	}
}

// paperPrice is the paper's time to solution: the advances plus l backward
// steps, with the forward each adjoint step re-runs to tape its stage left
// out. The pins below hold it as the reference the figure must reproduce.
func paperPrice(l int, advances int64, b float64) float64 {
	return float64(advances) + b*float64(l)
}

// TestFigure1PaperConventionPinned: every cell of every revolve and
// sequential panel on the default grid, and every "min rho (paper)" value of
// the fit analysis, "never" rows included, is what the paper's convention
// gives: rows evaluated at rho + tapedShare under CostModel land on the same
// slot counts.
func TestFigure1PaperConventionPinned(t *testing.T) {
	cost := checkpoint.DefaultCostModel
	b := cost.BackwardRatio
	revolve := func(cs checkpoint.ChainSpec, rho float64) int64 {
		budget := rho*cost.BaselineTime(cs.Length) - b*float64(cs.Length)
		if budget >= 0 {
			if slots, _, ok := checkpoint.MinSlotsForForwards(cs.Length, int64(math.Floor(budget+1e-9))); ok {
				return cs.MemoryWithSlots(slots)
			}
		}
		return cs.MemoryNoCheckpoint()
	}
	sequential := func(cs checkpoint.ChainSpec, rho float64) int64 {
		best := -1
		for s := 1; s <= cs.Length; s++ {
			r := paperPrice(cs.Length, checkpoint.SequentialForwards(cs.Length, s), b) / cost.BaselineTime(cs.Length)
			if m := checkpoint.SequentialMemorySlots(cs.Length, s); r <= rho+1e-12 && (best == -1 || m < best) {
				best = m
			}
		}
		if best == -1 {
			return cs.MemoryNoCheckpoint()
		}
		return cs.WeightBytes + int64(best+1)*cs.ActivationBytes
	}
	for _, scheme := range []struct {
		name  string
		curve func(checkpoint.ChainSpec, []float64, checkpoint.CostModel) []checkpoint.CurvePoint
		want  func(checkpoint.ChainSpec, float64) int64
	}{
		{"revolve", checkpoint.MemoryVsRho, revolve},
		{"sequential", checkpoint.SequentialMemoryVsRho, sequential},
	} {
		for _, cfg := range Figure1Panels {
			p, err := Figure1Panel(cfg, nil, DefaultAccounting, cost, scheme.curve)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range p.Series {
				for i, rho := range p.Rhos {
					if got, want := s.Points[i].MemoryBytes, scheme.want(s.Chain, rho); got != want {
						t.Fatalf("%s panel %s %s at rho %.2f: %d bytes, the paper's convention gives %d",
							scheme.name, cfg.Panel, s.Variant, rho, got, want)
					}
				}
			}
		}
	}

	nevers := 0
	for _, maxRho := range []float64{4, 1.5, 1.2, 1.05} {
		results, err := FitAnalysis(DefaultAccounting, cost, maxRho)
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(RenderFitAnalysis(results, cost), "\n")[2:]
		for i, r := range results {
			cs, err := LinearChain(r.Variant, r.Config.ImageSize, r.Config.BatchSize, DefaultAccounting)
			if err != nil {
				t.Fatal(err)
			}
			want := "never"
			if cs.MemoryNoCheckpoint() <= EdgeDeviceMemoryBytes {
				want = "1.00"
			} else if slots := int((EdgeDeviceMemoryBytes-cs.WeightBytes)/cs.ActivationBytes) - 1; slots >= 0 {
				rho := max(1, paperPrice(cs.Length, checkpoint.MinForwards(cs.Length, slots), b)/cost.BaselineTime(cs.Length))
				if rho <= maxRho {
					want = fmt.Sprintf("%.2f", rho)
				}
			}
			if got := strings.Fields(rows[i])[3]; got != want {
				t.Fatalf("max rho %g, panel %s %s: min rho (paper) %s, want %s", maxRho, r.Config.Panel, r.Variant, got, want)
			}
			if want == "never" {
				nevers++
			}
		}
	}
	if nevers == 0 {
		t.Fatal("no fit row reads \"never\": the pin does not reach the maxRho cut")
	}
}
