// Package trainer provides optimisers, a training loop that can run its
// backward pass under any checkpointing policy, and the opportunistic
// (idle-CPU) scheduler that Section III envisions for student-model training
// on a Waggle node.
package trainer

import (
	"fmt"
	"math"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/parallel"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter and does not clear gradients.
	Step(params []*nn.Param)
	// Name returns a short identifier ("sgd", "momentum", "adam").
	Name() string
	// StateBytesPerParam reports the optimiser state per parameter in bytes
	// at fp32, used by the memory accounting (SGD: 0, momentum: 4, Adam: 8).
	StateBytesPerParam() int64
}

// SGD is plain stochastic gradient descent with optional weight decay.
type SGD struct {
	LR          float64
	WeightDecay float64
}

// NewSGD creates a plain SGD optimiser.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// StateBytesPerParam implements Optimizer.
func (s *SGD) StateBytesPerParam() int64 { return 0 }

// Step implements Optimizer.
func (s *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		v := p.Value.Data()
		g := p.Grad.Data()
		for i := range v {
			grad := g[i] + s.WeightDecay*v[i]
			v[i] -= s.LR * grad
		}
	}
}

// Momentum is SGD with classical momentum.
type Momentum struct {
	LR          float64
	Beta        float64
	WeightDecay float64
	velocity    map[*nn.Param][]float64
}

// NewMomentum creates a momentum optimiser (beta defaults to 0.9 when 0).
func NewMomentum(lr, beta float64) *Momentum {
	if beta == 0 {
		beta = 0.9
	}
	return &Momentum{LR: lr, Beta: beta, velocity: make(map[*nn.Param][]float64)}
}

// Name implements Optimizer.
func (m *Momentum) Name() string { return "momentum" }

// StateBytesPerParam implements Optimizer.
func (m *Momentum) StateBytesPerParam() int64 { return 4 }

// Step implements Optimizer.
func (m *Momentum) Step(params []*nn.Param) {
	for _, p := range params {
		vel, ok := m.velocity[p]
		if !ok {
			vel = make([]float64, p.Count())
			m.velocity[p] = vel
		}
		v := p.Value.Data()
		g := p.Grad.Data()
		for i := range v {
			grad := g[i] + m.WeightDecay*v[i]
			vel[i] = m.Beta*vel[i] + grad
			v[i] -= m.LR * vel[i]
		}
	}
}

// Adam is the Adam optimiser (Kingma & Ba) with bias correction.
type Adam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64
	step         int
	m, v         map[*nn.Param][]float64
}

// NewAdam creates an Adam optimiser with the standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*nn.Param][]float64),
		v: make(map[*nn.Param][]float64),
	}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// StateBytesPerParam implements Optimizer.
func (a *Adam) StateBytesPerParam() int64 { return 8 }

// Step implements Optimizer.
func (a *Adam) Step(params []*nn.Param) {
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range params {
		m1, ok := a.m[p]
		if !ok {
			m1 = make([]float64, p.Count())
			a.m[p] = m1
		}
		m2, ok := a.v[p]
		if !ok {
			m2 = make([]float64, p.Count())
			a.v[p] = m2
		}
		val := p.Value.Data()
		g := p.Grad.Data()
		// Every element is updated from its own gradient and moments alone,
		// so the large parameters are updated in parallel, bit for bit.
		parallel.For(len(val), adamGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				grad := g[i] + a.WeightDecay*val[i]
				m1[i] = a.Beta1*m1[i] + (1-a.Beta1)*grad
				m2[i] = a.Beta2*m2[i] + (1-a.Beta2)*grad*grad
				mHat := m1[i] / c1
				vHat := m2[i] / c2
				val[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
			}
		})
	}
}

// adamGrain is the number of elements one parallel chunk of Adam.Step
// updates: at two divisions and a square root an element, some 20 µs of work.
const adamGrain = 4096

// NewOptimizer constructs an optimiser by name: "sgd", "momentum" or "adam".
func NewOptimizer(name string, lr float64) (Optimizer, error) {
	switch name {
	case "sgd":
		return NewSGD(lr), nil
	case "momentum":
		return NewMomentum(lr, 0.9), nil
	case "adam":
		return NewAdam(lr), nil
	default:
		return nil, fmt.Errorf("trainer: unknown optimizer %q", name)
	}
}
