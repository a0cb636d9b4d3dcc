package fleet

import (
	"errors"
	"fmt"
	"math"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/obs"
)

// ErrBadUpdate is the typed error wrapping every update-validation failure:
// a payload that does not match the global model's parameters or carries
// non-finite values. Folding such an update would poison the global model
// (one NaN contaminates every weight it is averaged into), so aggregators
// reject the update before touching any global state. Callers distinguish a
// misbehaving worker from an engine failure with errors.Is(err, ErrBadUpdate).
var ErrBadUpdate = errors.New("fleet: invalid update")

// ValidateUpdate checks one worker's update against the global parameters:
// positive sample count, one payload tensor per parameter, matching shapes,
// and every value finite. A nil error means the update is structurally safe
// to fold. Both shipped aggregators call this on every update before
// mutating anything, so a malformed or poisoned remote update can never
// corrupt the global model mid-fold.
func ValidateUpdate(global []*nn.Param, u Update) error {
	reg := obs.Default()
	reg.Counter("fleet_validations_total", "Updates screened by ValidateUpdate before folding.").Inc()
	reject := func(err error) error {
		reg.Counter("fleet_validation_rejections_total", "Updates rejected by ValidateUpdate (structural damage or non-finite values).").Inc()
		obs.DefaultTracer().Event("validate", -1, u.Worker, "rejected: "+err.Error())
		return err
	}
	if u.Samples <= 0 {
		return reject(fmt.Errorf("%w: worker %d: non-positive sample count %d", ErrBadUpdate, u.Worker, u.Samples))
	}
	if len(u.Vecs) != len(global) {
		return reject(fmt.Errorf("%w: worker %d: %d payload tensors for %d parameters", ErrBadUpdate, u.Worker, len(u.Vecs), len(global)))
	}
	for k, v := range u.Vecs {
		if v == nil {
			return reject(fmt.Errorf("%w: worker %d: nil payload tensor for parameter %q", ErrBadUpdate, u.Worker, global[k].Name))
		}
		if !v.SameShape(global[k].Value) {
			return reject(fmt.Errorf("%w: worker %d: parameter %q payload shape %v, want %v",
				ErrBadUpdate, u.Worker, global[k].Name, v.Shape(), global[k].Value.Shape()))
		}
		if !allFinite(v.Data()) {
			// Rescan for the first offender, so the message names it.
			for _, x := range v.Data() {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return reject(fmt.Errorf("%w: worker %d: non-finite value %v in parameter %q", ErrBadUpdate, u.Worker, x, global[k].Name))
				}
			}
		}
	}
	return nil
}

// allFinite reports whether no element of d is NaN or ±Inf. A float64 is
// non-finite exactly when its exponent bits are all ones, that is when
// adding 1<<52 to them carries into the sign bit; OR-ing that sum over the
// vector tests every element with integer operations and no branch.
func allFinite(d []float64) bool {
	const exp = 0x7FF0_0000_0000_0000
	var a, b uint64
	for len(d) >= 2 {
		a |= math.Float64bits(d[0])&exp + 1<<52
		b |= math.Float64bits(d[1])&exp + 1<<52
		d = d[2:]
	}
	for _, x := range d {
		a |= math.Float64bits(x)&exp + 1<<52
	}
	return (a|b)>>63 == 0
}
