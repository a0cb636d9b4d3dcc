package fleet

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/edgeml/edgetrain/obs"
)

// poisonFrom is FedAvg whose worker 1 returns a non-finite update from the
// given round on.
type poisonFrom struct {
	*FedAvg
	round int
}

func (a poisonFrom) Local(w *Worker, round int) (Update, error) {
	u, err := a.FedAvg.Local(w, round)
	if err == nil && w.Index == 1 && round >= a.round {
		u.Vecs[0].Data()[0] = math.NaN()
	}
	return u, err
}

// TestFailedRoundLeavesSpan: the round that fails is the one an operator
// looks for in /trace, so it must have its span, and the fold that refused
// the update its own, each with the error in the detail — and the round that
// succeeded must have its span as before. The coordinator's run loop has
// kept this promise since it first failed a round; the in-process loop
// returned from a failed round without ending either span.
func TestFailedRoundLeavesSpan(t *testing.T) {
	if obs.Default() != nil || obs.DefaultTracer() != nil {
		t.Fatal("observability enabled at test entry")
	}
	tracer := obs.NewTracer(0)
	obs.SetDefaultTracer(tracer)
	defer obs.SetDefaultTracer(nil)

	f, err := New(Config{
		Workers:    make([]WorkerSpec, 2),
		Rounds:     3,
		Aggregator: poisonFrom{NewFedAvg(), 1},
	}, mlpFactory(5), makeDataset(8, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	before := globalParams(t, f)
	_, err = f.Run()
	if !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("run over a poisoned round 1 returned %v, want ErrBadUpdate", err)
	}

	spans := map[string]map[int]obs.Event{"round": {}, "fold": {}}
	for _, e := range tracer.Events() {
		if byRound, ok := spans[e.Name]; ok {
			if _, dup := byRound[e.Round]; dup {
				t.Fatalf("round %d has two %s spans", e.Round, e.Name)
			}
			byRound[e.Round] = e
		}
	}
	for name, byRound := range spans {
		if e, ok := byRound[0]; !ok || e.Detail != "" || e.Dur <= 0 {
			t.Fatalf("successful round 0: %s span %+v (present %v), want one with no detail", name, e, ok)
		}
		e, ok := byRound[1]
		if !ok {
			t.Fatalf("failed round 1 left no %s span; spans: %+v", name, byRound)
		}
		if !strings.HasPrefix(e.Detail, "error: ") || !strings.Contains(err.Error(), strings.TrimPrefix(e.Detail, "error: ")) {
			t.Fatalf("failed round's %s span detail %q does not name the error %q", name, e.Detail, err)
		}
		if _, ok := byRound[2]; ok {
			t.Fatalf("round 2 never ran but has a %s span", name)
		}
	}
	// The refused fold left the model where round 0 put it: it moved once.
	after := globalParams(t, f)
	moved := false
	for i := range before {
		for j, v := range before[i].Data() {
			if after[i].Data()[j] != v {
				moved = true
			}
			if math.IsNaN(after[i].Data()[j]) {
				t.Fatal("the refused update reached the global model")
			}
		}
	}
	if !moved {
		t.Fatal("round 0 did not move the global model")
	}
}
