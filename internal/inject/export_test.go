package inject

import "repro/internal/kernel"

// Hooks into the rung ladder for the external census test.

// NextRung returns the rung RunTarget would resume t's record run from:
// nil when t's key has a cached checkpoint, when t's first golden
// activation is unknown or never happens, or when no rung lies below it.
func NextRung(r *Runner, t Target) *kernel.Checkpoint {
	act, known := r.goldenActivation(t)
	if !known || act == never {
		return nil
	}
	key := r.model.ActivationKey(t)
	for _, e := range r.cps {
		if e.key == key {
			return nil
		}
	}
	return r.rungBelow(act)
}

// CachedCheckpoint returns the checkpoint cached for t's key, or nil.
func CachedCheckpoint(r *Runner, t Target) *kernel.Checkpoint {
	key := r.model.ActivationKey(t)
	for _, e := range r.cps {
		if e.key == key {
			return e.cp
		}
	}
	return nil
}

// Ladder returns the rung ladder, one slot per bin.
func Ladder(r *Runner) []*kernel.Checkpoint { return r.rungs[:] }

// RungBin returns the ladder bin of cp.
func RungBin(r *Runner, cp *kernel.Checkpoint) int { return r.rungBin(cp.Cycles()) }

// RungBins is the ladder's bound.
const RungBins = rungBins
