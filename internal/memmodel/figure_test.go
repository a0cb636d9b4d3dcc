package memmodel

import (
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
	panel, err := Figure1Panel(Figure1Panels[0], nil, DefaultAccounting, checkpoint.DefaultCostModel)
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
		p, err := Figure1Panel(cfg, []float64{1, 1.5, 2, 2.5, 3}, DefaultAccounting, checkpoint.DefaultCostModel)
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
	if out := RenderFitAnalysis(results); !strings.Contains(out, "1d") {
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
