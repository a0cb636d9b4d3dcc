package resnet

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/edgeml/edgetrain/internal/tensor"
)

func TestDepthMatchesNames(t *testing.T) {
	for _, v := range Variants {
		if v.Depth() != int(v) {
			t.Errorf("%s.Depth() = %d, want %d", v, v.Depth(), int(v))
		}
	}
	if Variant(7).Depth() != 0 {
		t.Error("unknown variant should report zero depth")
	}
}

func TestVariantString(t *testing.T) {
	if ResNet50.String() != "ResNet50" {
		t.Fatalf("String = %q", ResNet50.String())
	}
}

// TestParamCountsMatchPublishedValues pins the parameter counts against the
// well-known torchvision numbers (11.69M, 21.80M, 25.56M, 44.55M, 60.19M).
func TestParamCountsMatchPublishedValues(t *testing.T) {
	want := map[Variant]float64{
		ResNet18:  11.69e6,
		ResNet34:  21.80e6,
		ResNet50:  25.56e6,
		ResNet101: 44.55e6,
		ResNet152: 60.19e6,
	}
	for v, expected := range want {
		got, err := ParamCount(v)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(float64(got)-expected) / expected
		if rel > 0.01 {
			t.Errorf("%s parameter count %d deviates %.2f%% from the published %.0f", v, got, 100*rel, expected)
		}
	}
}

func TestCountRejectsTinyImages(t *testing.T) {
	if _, err := Count(ResNet18, 16); err == nil {
		t.Fatal("image sizes below 32 should be rejected")
	}
	if _, err := Count(Variant(99), 224); err == nil {
		t.Fatal("unknown variants should be rejected")
	}
}

func TestCountSpatialPipeline(t *testing.T) {
	counts, err := Count(ResNet18, 224)
	if err != nil {
		t.Fatal(err)
	}
	// The stem convolution output must be 64x112x112.
	if counts[0].Name != "conv1" || counts[0].OutputElems != 64*112*112 {
		t.Fatalf("stem conv output %d, want %d", counts[0].OutputElems, 64*112*112)
	}
	// The stem convolution has 64*3*7*7 parameters.
	if counts[0].Params != 64*3*7*7 {
		t.Fatalf("stem conv params %d, want %d", counts[0].Params, 64*3*7*7)
	}
	// The max pool brings the map to 56x56.
	var pool LayerCount
	for _, c := range counts {
		if c.Kind == "maxpool" {
			pool = c
			break
		}
	}
	if pool.OutputElems != 64*56*56 {
		t.Fatalf("maxpool output %d, want %d", pool.OutputElems, 64*56*56)
	}
	// The classifier is 512 -> 1000 with bias.
	last := counts[len(counts)-1]
	if last.Kind != "fc" || last.Params != 512*1000+1000 {
		t.Fatalf("classifier params %d, want %d", last.Params, 512*1000+1000)
	}
}

func TestBottleneckClassifierWidth(t *testing.T) {
	counts, err := Count(ResNet50, 224)
	if err != nil {
		t.Fatal(err)
	}
	last := counts[len(counts)-1]
	if last.Params != 2048*1000+1000 {
		t.Fatalf("ResNet-50 classifier params %d, want %d", last.Params, 2048*1000+1000)
	}
}

func TestActivationOrderingAcrossVariants(t *testing.T) {
	// Deeper variants retain strictly more activations at the same image size.
	prev := int64(0)
	for _, v := range Variants {
		a, err := ActivationElemsPerSample(v, 224)
		if err != nil {
			t.Fatal(err)
		}
		if a <= prev {
			t.Fatalf("%s activations %d not larger than previous %d", v, a, prev)
		}
		prev = a
	}
}

func TestActivationGrowsWithImageSize(t *testing.T) {
	small, err := ActivationElemsPerSample(ResNet34, 224)
	if err != nil {
		t.Fatal(err)
	}
	large, err := ActivationElemsPerSample(ResNet34, 500)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(large) / float64(small)
	// Roughly quadratic growth: (500/224)^2 = 4.98; allow generous slack for
	// integer rounding of the spatial pipeline.
	if ratio < 3.5 || ratio > 6.5 {
		t.Fatalf("activation growth ratio %v outside the expected quadratic range", ratio)
	}
}

func TestActivationScaleKnownMagnitude(t *testing.T) {
	// ResNet-18 at 224 retains on the order of 7-8 million activation
	// elements per sample when every conv/bn/relu/pool output is stored.
	a, err := ActivationElemsPerSample(ResNet18, 224)
	if err != nil {
		t.Fatal(err)
	}
	if a < 6e6 || a > 10e6 {
		t.Fatalf("ResNet-18 activations per sample = %d, expected 6-10 million", a)
	}
}

func TestBuildSmallForwardBackward(t *testing.T) {
	cfg := DefaultSmallConfig()
	net, err := BuildSmall(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	x := tensor.RandNormal(rng, 0, 1, 2, cfg.InputChannels, 16, 16)
	out := net.Forward(x, true)
	if out.Dim(0) != 2 || out.Dim(1) != cfg.NumClasses {
		t.Fatalf("small net output shape %v", out.Shape())
	}
	grad := tensor.RandNormal(rng, 0, 1, out.Shape()...)
	gin := net.Backward(grad)
	if gin.Rank() != 4 {
		t.Fatalf("input gradient rank %d", gin.Rank())
	}
	if len(net.Params()) == 0 {
		t.Fatal("small net has no parameters")
	}
}

func TestBuildSmallBottleneckVariant(t *testing.T) {
	cfg := SmallConfig{Variant: ResNet50, InputChannels: 3, NumClasses: 5, BaseWidth: 4, Stages: 1, Seed: 2}
	net, err := BuildSmall(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(4)
	x := tensor.RandNormal(rng, 0, 1, 1, 3, 16, 16)
	out := net.Forward(x, true)
	if out.Dim(1) != 5 {
		t.Fatalf("bottleneck small net output shape %v", out.Shape())
	}
}

func TestBuildSmallValidation(t *testing.T) {
	if _, err := BuildSmall(SmallConfig{Variant: Variant(3)}); err == nil {
		t.Fatal("unknown variant should be rejected")
	}
	// Zero values get defaults.
	net, err := BuildSmall(SmallConfig{Variant: ResNet18})
	if err != nil {
		t.Fatal(err)
	}
	if net.Len() < 5 {
		t.Fatalf("defaulted config produced a degenerate network of %d stages", net.Len())
	}
}

// Property: activation counts scale exactly linearly when expressed per
// sample (the per-sample count is independent of how many samples we ask
// about), and parameter counts never depend on the image size.
func TestParamsIndependentOfImageSizeProperty(t *testing.T) {
	f := func(sizeRaw uint8) bool {
		size := 64 + int(sizeRaw%8)*32
		for _, v := range []Variant{ResNet18, ResNet50} {
			counts, err := Count(v, size)
			if err != nil {
				return false
			}
			var params int64
			for _, c := range counts {
				params += c.Params
			}
			ref, err := ParamCount(v)
			if err != nil || params != ref {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
