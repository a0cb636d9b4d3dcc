// Package health evaluates declarative training-health rules at round
// boundaries and turns violations into typed alerts.
//
// A Monitor holds a rule set (DefaultRules covers the failure modes that
// matter for memory-constrained edge fleets: loss divergence, NaN
// rejections, stragglers, worker flapping, and round-retry burn). After
// every committed round the coordinator — or the in-process fleet runner —
// calls ObserveRound with that round's Stats; each firing rule appends an
// Alert, increments the fleet_alerts_total{rule=...} counter on the
// process-default registry, and degrades the process /healthz to 503
// until a clean round passes. Like the rest of obs, the package is
// dependency-free and nil-safe: a nil Monitor observes nothing.
package health

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/edgeml/edgetrain/obs"
)

// Stats is one committed round's health-relevant accounting, filled by
// the caller from its round bookkeeping (fleet.RoundStats or the
// coordinator's commit path).
type Stats struct {
	Round        int             // round index
	Loss         float64         // weighted mean loss this round
	Participants int             // workers whose updates folded
	Dropouts     int             // workers lost mid-round
	Rejected     int             // updates rejected (NaN/Inf or malformed)
	Retries      int             // extra attempts before this round committed
	Flaps        int             // worker rejoin events since the last round
	LiveWorkers  int             // connected workers after the round
	MinWorkers   int             // configured quorum floor (0 = unknown)
	WallClock    time.Duration   // round wall-clock duration
	LocalDur     []time.Duration // per-participant local training durations
}

// Alert is one rule violation at one round boundary.
type Alert struct {
	Rule   string // rule name, also the fleet_alerts_total label value
	Round  int    // round that tripped the rule
	Detail string // human-readable reason
}

func (a Alert) String() string {
	return fmt.Sprintf("round %d: %s: %s", a.Round, a.Rule, a.Detail)
}

// History is the cross-round state rules may consult.
type History struct {
	Rounds   int     // rounds observed so far (excluding the current one)
	PrevLoss float64 // previous round's loss (NaN before the first round)
	BestLoss float64 // lowest loss seen (NaN before the first round)
}

// StragglerFloor is the least local-train time the straggler rule alerts
// on. A ratio alone fires on scheduler jitter when rounds take fractions of
// a millisecond (0.6 ms against a 0.1 ms median is 6x and costs nothing);
// a straggler is worth an alert only when the round it holds up waits this
// long for it.
const StragglerFloor = 10 * time.Millisecond

// Rule is one declarative health check. Check returns a detail string
// and true when the rule fires for the observed round.
type Rule struct {
	Name  string // short kebab-case identifier ("loss-divergence", …)
	Help  string // one-line description for docs and alert tables
	Check func(h History, s Stats) (detail string, fired bool)
}

// DefaultRules returns the built-in rule set.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "loss-divergence",
			Help: "round loss is NaN/Inf or worse than 2x the best loss seen",
			Check: func(h History, s Stats) (string, bool) {
				if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) {
					return fmt.Sprintf("loss=%v", s.Loss), true
				}
				if h.Rounds > 0 && !math.IsNaN(h.BestLoss) && s.Loss > 2*h.BestLoss {
					return fmt.Sprintf("loss %.4g > 2x best %.4g", s.Loss, h.BestLoss), true
				}
				return "", false
			},
		},
		{
			Name: "nan-rejections",
			Help: "one or more worker updates were rejected this round",
			Check: func(h History, s Stats) (string, bool) {
				if s.Rejected > 0 {
					return fmt.Sprintf("%d update(s) rejected", s.Rejected), true
				}
				return "", false
			},
		},
		{
			Name: "straggler",
			Help: "slowest worker took over 4x the median local-train time and at least 10ms (StragglerFloor)",
			Check: func(h History, s Stats) (string, bool) {
				if len(s.LocalDur) < 3 {
					return "", false
				}
				ds := append([]time.Duration(nil), s.LocalDur...)
				sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
				median, max := ds[len(ds)/2], ds[len(ds)-1]
				if median > 0 && max > 4*median && max >= StragglerFloor {
					return fmt.Sprintf("slowest %v vs median %v", max, median), true
				}
				return "", false
			},
		},
		{
			Name: "worker-flap",
			Help: "two or more worker reconnects since the previous round",
			Check: func(h History, s Stats) (string, bool) {
				if s.Flaps >= 2 {
					return fmt.Sprintf("%d rejoin(s)", s.Flaps), true
				}
				return "", false
			},
		},
		{
			Name: "retry-burn",
			Help: "the round needed two or more extra attempts to commit",
			Check: func(h History, s Stats) (string, bool) {
				if s.Retries >= 2 {
					return fmt.Sprintf("%d retries", s.Retries), true
				}
				return "", false
			},
		},
	}
}

// Monitor evaluates a rule set at round boundaries and accumulates
// alerts. All methods are safe for concurrent use and no-ops on nil.
type Monitor struct {
	mu      sync.Mutex
	rules   []Rule
	history History
	all     []Alert
	active  []Alert // alerts from the most recent observed round
}

// NewMonitor returns a monitor over rules (DefaultRules when empty).
func NewMonitor(rules ...Rule) *Monitor {
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	return &Monitor{rules: rules, history: History{PrevLoss: math.NaN(), BestLoss: math.NaN()}}
}

// ObserveRound evaluates every rule against s, records firings, counts
// them into fleet_alerts_total{rule=...} on the process-default registry,
// and returns the alerts fired by this round (nil when healthy).
func (m *Monitor) ObserveRound(s Stats) []Alert {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var fired []Alert
	for _, r := range m.rules {
		if detail, ok := r.Check(m.history, s); ok {
			a := Alert{Rule: r.Name, Round: s.Round, Detail: detail}
			fired = append(fired, a)
			obs.Default().CounterWith("fleet_alerts_total",
				"Health alerts fired at round boundaries, by rule.",
				obs.L("rule", r.Name)).Inc()
		}
	}
	m.all = append(m.all, fired...)
	m.active = fired
	m.history.Rounds++
	m.history.PrevLoss = s.Loss
	if !math.IsNaN(s.Loss) && !math.IsInf(s.Loss, 0) {
		if math.IsNaN(m.history.BestLoss) || s.Loss < m.history.BestLoss {
			m.history.BestLoss = s.Loss
		}
	}
	return fired
}

// Alerts returns every alert fired so far, oldest-first.
func (m *Monitor) Alerts() []Alert {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.all...)
}

// Active returns the alerts fired by the most recently observed round.
// A non-empty result means the process /healthz should degrade to 503.
func (m *Monitor) Active() []Alert {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.active...)
}

// Reasons renders alerts as short strings for Health.Alerts.
func Reasons(alerts []Alert) []string {
	if len(alerts) == 0 {
		return nil
	}
	out := make([]string, len(alerts))
	for i, a := range alerts {
		out[i] = a.String()
	}
	return out
}
