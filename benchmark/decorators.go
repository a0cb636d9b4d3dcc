package main

import (
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/schedule"
	"github.com/edgeml/edgetrain/store"
)

// tracedLayer records a span around every Forward and Backward of the layer
// it wraps, so the traced run sees the nn layer's time as children of the
// chain executor's span without touching program code. It forwards the
// optional interfaces the rest of the program looks for on a layer:
// nn.Stateful (ckpt.CaptureLayerState walks it for batch-norm statistics)
// and nn.StatsProvider.
type tracedLayer struct {
	inner nn.Layer
	rec   *recorder
}

func (l *tracedLayer) Name() string { return l.inner.Name() }

func (l *tracedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	id := l.rec.begin("nn.forward", l.inner.Name())
	out := l.inner.Forward(x, train)
	l.rec.end(id)
	return out
}

func (l *tracedLayer) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	id := l.rec.begin("nn.backward", l.inner.Name())
	g := l.inner.Backward(gradOut)
	l.rec.end(id)
	return g
}

func (l *tracedLayer) Params() []*nn.Param        { return l.inner.Params() }
func (l *tracedLayer) OutputShape(in []int) []int { return l.inner.OutputShape(in) }

// StateTensors implements nn.Stateful; a stateless inner layer contributes
// nothing, exactly as nn.CollectState treats it unwrapped.
func (l *tracedLayer) StateTensors() []nn.NamedState {
	if s, ok := l.inner.(nn.Stateful); ok {
		return s.StateTensors()
	}
	return nil
}

// Stats implements nn.StatsProvider.
func (l *tracedLayer) Stats(in []int) nn.Stats {
	if sp, ok := l.inner.(nn.StatsProvider); ok {
		return sp.Stats(in)
	}
	return nn.Stats{}
}

// traceChain returns a chain whose stages are the given chain's, each behind
// a tracedLayer. Parameters are shared, so an optimiser stepping either chain
// trains both.
func traceChain(c *chain.Chain, rec *recorder) *chain.Chain {
	stages := make([]nn.Layer, len(c.Stages))
	for i, s := range c.Stages {
		stages[i] = &tracedLayer{inner: s, rec: rec}
	}
	return chain.New(stages...)
}

// tracedStore records a span around every Put, Get and Free of the checkpoint
// store it wraps. Everything else — the tier annotation a Tiered store routes
// by, the residency accounting and Holds, which the executor's peak-bytes
// tracking depends on — passes straight through.
type tracedStore struct {
	inner   store.Store
	rec     *recorder
	spilled int64 // tensor bytes Put with the disk tier so far
}

func (s *tracedStore) Put(slot int, tier schedule.Tier, t *tensor.Tensor) error {
	id := s.rec.begin("store.put", tier.String())
	err := s.inner.Put(slot, tier, t)
	s.rec.end(id)
	if err == nil && tier == schedule.TierDisk {
		s.spilled += t.Bytes()
	}
	return err
}

func (s *tracedStore) Get(slot int) (*tensor.Tensor, error) {
	id := s.rec.begin("store.get", "")
	t, err := s.inner.Get(slot)
	s.rec.end(id)
	return t, err
}

func (s *tracedStore) Free(slot int) error {
	id := s.rec.begin("store.free", "")
	err := s.inner.Free(slot)
	s.rec.end(id)
	return err
}

func (s *tracedStore) BytesResident() int64        { return s.inner.BytesResident() }
func (s *tracedStore) Holds(t *tensor.Tensor) bool { return s.inner.Holds(t) }
func (s *tracedStore) Stats() store.Stats          { return s.inner.Stats() }
func (s *tracedStore) Close() error                { return s.inner.Close() }
