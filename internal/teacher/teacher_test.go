package teacher

import (
	"testing"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/vision"
)

func TestNewClassifierShapes(t *testing.T) {
	net := NewClassifier("t", 16, 4, 1)
	rng := tensor.NewRNG(2)
	x := tensor.RandNormal(rng, 0, 1, 3, 1, 16, 16)
	out := net.Forward(x, true)
	if out.Dim(0) != 3 || out.Dim(1) != 4 {
		t.Fatalf("classifier output shape %v", out.Shape())
	}
}

func TestClassifyReturnsValidPrediction(t *testing.T) {
	net := NewClassifier("t", 16, 4, 3)
	c := chain.FromSequential(net)
	rng := tensor.NewRNG(4)
	frame := vision.Sample(rng, vision.Disk, 0, 16)
	p := Classify(c, frame)
	if p.Class < 0 || p.Class >= 4 {
		t.Fatalf("invalid class %d", p.Class)
	}
	if p.Confidence <= 0 || p.Confidence > 1 {
		t.Fatalf("invalid confidence %v", p.Confidence)
	}
}

// TestStudentTeacherPipeline is the E11 reproduction: the teacher degrades on
// the node's viewpoint and the in-situ trained student recovers most of the
// lost accuracy without any data leaving the node.
func TestStudentTeacherPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline training is too slow for -short")
	}
	cfg := DefaultConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pipeline: %s", res)
	if res.TeacherCanonicalAccuracy < 0.8 {
		t.Errorf("teacher should master its own viewpoint, got %.2f", res.TeacherCanonicalAccuracy)
	}
	if res.TeacherNodeAccuracy > res.TeacherCanonicalAccuracy-0.1 {
		t.Errorf("the viewpoint problem should cost the teacher accuracy: canonical %.2f vs node %.2f",
			res.TeacherCanonicalAccuracy, res.TeacherNodeAccuracy)
	}
	if res.StudentNodeAccuracy < res.TeacherNodeAccuracy+0.1 {
		t.Errorf("the student should beat the teacher on the node viewpoint: student %.2f vs teacher %.2f",
			res.StudentNodeAccuracy, res.TeacherNodeAccuracy)
	}
	if res.HarvestedImages == 0 || res.TracksHarvested == 0 {
		t.Error("the pipeline harvested no in-situ training data")
	}
	if res.LabelAccuracy < 0.7 {
		t.Errorf("auto-labels should be mostly correct, got %.2f", res.LabelAccuracy)
	}
}

// TestPipelineWithCheckpointing runs the student training under a Revolve
// policy and checks it still works end to end with a reduced number of
// retained states.
func TestPipelineWithCheckpointing(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline training is too slow for -short")
	}
	cfg := DefaultConfig()
	cfg.Tracks = 16
	cfg.TeacherSamples = 160
	cfg.EvalSamples = 80
	cfg.StudentEpochs = 2
	cfg.Policy = chain.Policy{Kind: "revolve", Slots: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The classifier chain has 10 stages; the plain executor would retain 11
	// states, Revolve with 3 slots at most 4 plus the input.
	if res.PeakStates == 0 || res.PeakStates > 5 {
		t.Errorf("checkpointed student training retained %d states, expected at most 5", res.PeakStates)
	}
}

func TestConfigNormalization(t *testing.T) {
	cfg := Config{}.normalized()
	def := DefaultConfig()
	if cfg.ImageSize != def.ImageSize || cfg.Tracks != def.Tracks || cfg.Seed != def.Seed {
		t.Fatalf("zero config not normalised: %+v", cfg)
	}
}
