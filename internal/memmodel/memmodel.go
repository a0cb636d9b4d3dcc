// Package memmodel is the analytical memory model that reproduces Tables I,
// II and III of "Training on the Edge" and the memory axis of Figure 1.
//
// The paper does not state its counting rules; reverse-engineering its tables
// is consistent with (a) a per-parameter state of roughly 15-16 bytes
// (weights, gradients and optimiser moments at fp32) and (b) roughly 8 bytes
// per stored activation element (the fp32 value plus its fp32 gradient).
// Those are the defaults in Accounting; both knobs are exposed so the
// sensitivity ablations can vary them.
package memmodel

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/resnet"
)

// Accounting fixes the byte cost of parameters and activations.
type Accounting struct {
	// ParamStateBytes is the total per-parameter footprint: value, gradient
	// and optimiser state. Adam at fp32 gives 16 (4 each for value, gradient
	// and two moments); plain SGD gives 8.
	ParamStateBytes int64
	// ActivationBytes is the per-element footprint of a stored activation:
	// 8 covers the fp32 value plus its fp32 gradient buffer.
	ActivationBytes int64
}

// DefaultAccounting is the calibration the reproduced tables use: Adam-style
// optimiser state, activation values plus gradients at fp32.
var DefaultAccounting = Accounting{ParamStateBytes: 16, ActivationBytes: 8}

// SGDAccounting is the cheaper optimiser-state variant used by the
// sensitivity ablation (value + gradient only).
var SGDAccounting = Accounting{ParamStateBytes: 8, ActivationBytes: 8}

// normalized applies defaults to zero values.
func (a Accounting) normalized() Accounting {
	if a.ParamStateBytes <= 0 {
		a.ParamStateBytes = DefaultAccounting.ParamStateBytes
	}
	if a.ActivationBytes <= 0 {
		a.ActivationBytes = DefaultAccounting.ActivationBytes
	}
	return a
}

// Footprint is the memory requirement of training one model configuration.
type Footprint struct {
	Variant     resnet.Variant
	ImageSize   int
	BatchSize   int
	WeightBytes int64 // parameters, gradients and optimiser state
	ActBytes    int64 // all retained activations for the batch
}

// TotalBytes is the no-checkpointing peak footprint, the quantity reported in
// Tables I-III.
func (f Footprint) TotalBytes() int64 { return f.WeightBytes + f.ActBytes }

// MB returns the total footprint in decimal megabytes (the unit of Tables I
// and II).
func (f Footprint) MB() float64 { return float64(f.TotalBytes()) / 1e6 }

// GB returns the total footprint in decimal gigabytes (the unit of Table III).
func (f Footprint) GB() float64 { return float64(f.TotalBytes()) / 1e9 }

// FitsIn reports whether the footprint fits a device with the given memory.
func (f Footprint) FitsIn(capacityBytes int64) bool { return f.TotalBytes() <= capacityBytes }

// String summarises the footprint.
func (f Footprint) String() string {
	return fmt.Sprintf("%s img=%d batch=%d: weights=%.1f MB activations=%.1f MB total=%.1f MB",
		f.Variant, f.ImageSize, f.BatchSize,
		float64(f.WeightBytes)/1e6, float64(f.ActBytes)/1e6, f.MB())
}

// Model computes the training memory footprint of a ResNet variant at the
// given image size and batch size under the accounting rules.
func Model(v resnet.Variant, imageSize, batchSize int, acc Accounting) (Footprint, error) {
	acc = acc.normalized()
	if batchSize < 1 {
		return Footprint{}, fmt.Errorf("memmodel: batch size must be positive, got %d", batchSize)
	}
	params, err := resnet.ParamCount(v)
	if err != nil {
		return Footprint{}, err
	}
	actPerSample, err := resnet.ActivationElemsPerSample(v, imageSize)
	if err != nil {
		return Footprint{}, err
	}
	return Footprint{
		Variant:     v,
		ImageSize:   imageSize,
		BatchSize:   batchSize,
		WeightBytes: params * acc.ParamStateBytes,
		ActBytes:    actPerSample * int64(batchSize) * acc.ActivationBytes,
	}, nil
}

// EdgeDeviceMemoryBytes is the 2 GB LPDDR3 capacity of the Waggle payload
// board (ODROID XU4) that the paper uses as the fit threshold.
const EdgeDeviceMemoryBytes = int64(2) << 30

// ParseBytes parses a human-readable byte size for command-line budget
// flags: a plain integer is bytes, and the binary suffixes KB/MB/GB (case
// insensitive, optional "iB" spelling) scale by 2^10/2^20/2^30, matching the
// power-of-two capacities the device model uses.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	shift := 0
	for _, suf := range []struct {
		text  string
		shift int
	}{{"KIB", 10}, {"MIB", 20}, {"GIB", 30}, {"KB", 10}, {"MB", 20}, {"GB", 30}, {"K", 10}, {"M", 20}, {"G", 30}, {"B", 0}} {
		if strings.HasSuffix(t, suf.text) {
			t, shift = strings.TrimSuffix(t, suf.text), suf.shift
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil || v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("memmodel: cannot parse byte size %q", s)
	}
	bytes := v * float64(int64(1)<<shift)
	if bytes > float64(math.MaxInt64) {
		return 0, fmt.Errorf("memmodel: byte size %q overflows", s)
	}
	return int64(bytes), nil
}

// LinearChain builds the LinearResNet homogenisation of Section VI: a chain
// whose length is the variant's nominal depth, whose weight memory equals the
// full model's weight memory and whose per-stage activation is the total
// activation memory divided by the depth.
func LinearChain(v resnet.Variant, imageSize, batchSize int, acc Accounting) (checkpoint.ChainSpec, error) {
	fp, err := Model(v, imageSize, batchSize, acc)
	if err != nil {
		return checkpoint.ChainSpec{}, err
	}
	depth := v.Depth()
	if depth == 0 {
		return checkpoint.ChainSpec{}, fmt.Errorf("memmodel: unknown variant %v", v)
	}
	return checkpoint.ChainSpec{
		Name:            fmt.Sprintf("Linear%s-img%d-b%d", v, imageSize, batchSize),
		Length:          depth,
		WeightBytes:     fp.WeightBytes,
		ActivationBytes: fp.ActBytes / int64(depth),
	}, nil
}

// HeterogeneousStateBytes returns the byte size of every inter-operation
// state x_0..x_L of the real (non-homogenised) network, for the heterogeneous
// checkpointing ablation: state 0 is the input image batch and state i is the
// output of the i-th counted operation.
func HeterogeneousStateBytes(v resnet.Variant, imageSize, batchSize int, acc Accounting) ([]int64, error) {
	acc = acc.normalized()
	counts, err := resnet.Count(v, imageSize)
	if err != nil {
		return nil, err
	}
	states := make([]int64, 0, len(counts)+1)
	states = append(states, int64(3*imageSize*imageSize)*int64(batchSize)*acc.ActivationBytes)
	for _, c := range counts {
		states = append(states, c.OutputElems*int64(batchSize)*acc.ActivationBytes)
	}
	return states, nil
}
