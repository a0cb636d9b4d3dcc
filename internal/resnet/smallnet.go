package resnet

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// SmallConfig describes a scaled-down, runnable ResNet built on internal/nn.
// It keeps the residual topology of the chosen variant but shrinks the
// channel widths and drops the 7x7 stem so that it trains in seconds on the
// small synthetic images used by the examples and tests (the role the student
// model plays on a Waggle node).
type SmallConfig struct {
	Variant       Variant
	InputChannels int // e.g. 1 for the synthetic silhouette dataset, 3 for RGB
	NumClasses    int
	BaseWidth     int // width of the first stage; published ResNets use 64
	Stages        int // number of residual stages to keep (1..4)
	Seed          uint64
}

// DefaultSmallConfig returns a configuration suitable for 16x16 to 32x32
// inputs: a ResNet-18 topology at one-eighth width with two stages.
func DefaultSmallConfig() SmallConfig {
	return SmallConfig{
		Variant:       ResNet18,
		InputChannels: 1,
		NumClasses:    4,
		BaseWidth:     8,
		Stages:        2,
		Seed:          1,
	}
}

// validate fills defaults and rejects unusable configurations.
func (c SmallConfig) validate() (SmallConfig, error) {
	if c.InputChannels <= 0 {
		c.InputChannels = 1
	}
	if c.NumClasses <= 0 {
		c.NumClasses = 2
	}
	if c.BaseWidth <= 0 {
		c.BaseWidth = 8
	}
	if c.Stages <= 0 || c.Stages > 4 {
		c.Stages = 2
	}
	if _, _, err := c.Variant.config(); err != nil {
		return c, err
	}
	return c, nil
}

// BuildSmall constructs the runnable scaled-down ResNet as a Sequential whose
// elements are the "stages" a checkpointed executor treats as chain steps:
// stem convolution, every residual block, global average pooling and the
// classifier head.
func BuildSmall(cfg SmallConfig) (*nn.Sequential, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	blocks, bottleneck, err := cfg.Variant.config()
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)

	layers := []nn.Layer{
		nn.NewConv2D("stem.conv", cfg.InputChannels, cfg.BaseWidth, 3, 1, 1, false, rng),
		nn.NewBatchNorm2D("stem.bn", cfg.BaseWidth),
		nn.NewReLU("stem.relu"),
	}

	inC := cfg.BaseWidth
	for stage := 0; stage < cfg.Stages; stage++ {
		planes := cfg.BaseWidth << stage
		stride := 1
		if stage > 0 {
			stride = 2
		}
		for b := 0; b < blocks[stage]; b++ {
			s := 1
			if b == 0 {
				s = stride
			}
			name := fmt.Sprintf("layer%d.block%d", stage+1, b)
			if bottleneck {
				blk := nn.NewBottleneck(name, inC, planes, s, rng)
				layers = append(layers, blk)
				inC = planes * nn.BottleneckExpansion
			} else {
				blk := nn.NewBasicBlock(name, inC, planes, s, rng)
				layers = append(layers, blk)
				inC = planes
			}
		}
	}
	layers = append(layers,
		nn.NewGlobalAvgPool2D("avgpool"),
		nn.NewLinear("fc", inC, cfg.NumClasses, true, rng),
	)
	return nn.NewSequential(fmt.Sprintf("small-%s", cfg.Variant), layers...), nil
}
