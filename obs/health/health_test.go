package health

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/obs"
)

func alertRules(as []Alert) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.Rule)
	}
	return out
}

func fired(as []Alert, rule string) bool {
	for _, a := range as {
		if a.Rule == rule {
			return true
		}
	}
	return false
}

func TestHealthyRoundsFireNothing(t *testing.T) {
	m := NewMonitor()
	for r := 0; r < 3; r++ {
		s := Stats{
			Round: r, Loss: 1.0 / float64(r+1), Participants: 3,
			LocalDur: []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond},
		}
		if as := m.ObserveRound(s); len(as) != 0 {
			t.Fatalf("round %d fired %v, want none", r, alertRules(as))
		}
	}
	if as := m.Alerts(); len(as) != 0 {
		t.Fatalf("Alerts() = %v, want empty", as)
	}
	if as := m.Active(); len(as) != 0 {
		t.Fatalf("Active() = %v, want empty", as)
	}
}

func TestLossDivergence(t *testing.T) {
	m := NewMonitor()
	// NaN fires immediately, even on the first round.
	if as := m.ObserveRound(Stats{Round: 0, Loss: math.NaN()}); !fired(as, "loss-divergence") {
		t.Fatalf("NaN loss did not fire loss-divergence: %v", alertRules(as))
	}
	m = NewMonitor()
	m.ObserveRound(Stats{Round: 0, Loss: 1.0})
	if as := m.ObserveRound(Stats{Round: 1, Loss: 2.5}); !fired(as, "loss-divergence") {
		t.Fatalf("2.5x best loss did not fire: %v", alertRules(as))
	}
	// Recovery clears the active set.
	if as := m.ObserveRound(Stats{Round: 2, Loss: 0.9}); len(as) != 0 {
		t.Fatalf("recovered round still fires %v", alertRules(as))
	}
	if as := m.Active(); len(as) != 0 {
		t.Fatalf("Active() after recovery = %v, want empty", as)
	}
	// But the historical record keeps the firing.
	if as := m.Alerts(); len(as) != 1 || as[0].Round != 1 {
		t.Fatalf("Alerts() = %v, want one alert at round 1", as)
	}
}

func TestNaNRejections(t *testing.T) {
	m := NewMonitor()
	as := m.ObserveRound(Stats{Round: 0, Loss: 1, Rejected: 2})
	if !fired(as, "nan-rejections") {
		t.Fatalf("rejections did not fire: %v", alertRules(as))
	}
}

func TestStraggler(t *testing.T) {
	m := NewMonitor()
	ms := time.Millisecond
	// Two participants never fire — no meaningful median.
	if as := m.ObserveRound(Stats{Round: 0, Loss: 1, LocalDur: []time.Duration{ms, 100 * ms}}); fired(as, "straggler") {
		t.Fatal("straggler fired with only two participants")
	}
	as := m.ObserveRound(Stats{Round: 1, Loss: 1, LocalDur: []time.Duration{ms, ms, 10 * ms}})
	if !fired(as, "straggler") {
		t.Fatalf("10x median did not fire: %v", alertRules(as))
	}
	// The same ratio below the absolute floor is scheduler jitter on a
	// sub-millisecond round, not a straggler: it costs the round nothing.
	us := time.Microsecond
	if as := m.ObserveRound(Stats{Round: 2, Loss: 1, LocalDur: []time.Duration{100 * us, 100 * us, 1000 * us}}); fired(as, "straggler") {
		t.Fatalf("10x median fired at %v, below the %v floor", 1000*us, StragglerFloor)
	}
	if as := m.ObserveRound(Stats{Round: 3, Loss: 1, LocalDur: []time.Duration{ms, ms, StragglerFloor - us}}); fired(as, "straggler") {
		t.Fatal("straggler fired just below the floor")
	}
}

func TestWorkerFlapAndRetryBurn(t *testing.T) {
	m := NewMonitor()
	as := m.ObserveRound(Stats{Round: 0, Loss: 1, Flaps: 2, Retries: 3})
	if !fired(as, "worker-flap") || !fired(as, "retry-burn") {
		t.Fatalf("flap+retry round fired %v", alertRules(as))
	}
	if as := m.ObserveRound(Stats{Round: 1, Loss: 1, Retries: 1}); len(as) != 0 {
		t.Fatalf("single retry fired %v", alertRules(as))
	}
}

func TestAlertsCounter(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	m := NewMonitor()
	m.ObserveRound(Stats{Round: 0, Loss: math.Inf(1), Rejected: 1})
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		`fleet_alerts_total{rule="loss-divergence"} 1`,
		`fleet_alerts_total{rule="nan-rejections"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
}

func TestNilMonitor(t *testing.T) {
	var m *Monitor
	if as := m.ObserveRound(Stats{Loss: math.NaN()}); as != nil {
		t.Fatal("nil monitor fired")
	}
	if m.Alerts() != nil || m.Active() != nil {
		t.Fatal("nil monitor has alerts")
	}
}

func TestReasons(t *testing.T) {
	got := Reasons([]Alert{{Rule: "retry-burn", Round: 3, Detail: "2 retries"}})
	if len(got) != 1 || got[0] != "round 3: retry-burn: 2 retries" {
		t.Fatalf("Reasons = %v", got)
	}
	if Reasons(nil) != nil {
		t.Fatal("Reasons(nil) != nil")
	}
}
