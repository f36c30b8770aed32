package inject_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/inject"
)

// rungCensus runs every target of study s in order and counts the
// record runs resumed from a rung. Every such rung must have been
// captured before the target's own checkpoint (which the runner checks
// against the key's first golden activation), and the ladder must keep
// at most one rung per bin, in its own bin. It also sums the record
// runs' prefixes, from the pristine snapshot to the capture, and the
// part of them that ran live: the gap from the rung, or the whole
// prefix of a run from the pristine snapshot.
func rungCensus(t *testing.T, s *core.Study) (records, fromRung int, prefix, live uint64) {
	t.Helper()
	r := s.Runner
	start := r.M.CPU.Cycles // NewRunner leaves the machine at its pristine snapshot
	for _, c := range s.Cfg.Campaigns {
		targets, err := s.Targets(c)
		if err != nil {
			t.Fatal(err)
		}
		for i, tg := range targets {
			rung := inject.NextRung(r, tg)
			if _, hf := r.RunTarget(c, tg); hf != nil {
				t.Fatalf("%v:%d (%s): %v", c, i, tg.Describe(), hf)
			}
			cp := inject.CachedCheckpoint(r, tg)
			switch r.LastProvenance() {
			case inject.ProvRecordRung:
				fromRung++
				switch {
				case rung == nil:
					t.Fatalf("%v:%d: a record run from a rung, but no rung lies below its activation", c, i)
				case cp == nil || rung.Cycles() >= cp.Cycles():
					t.Fatalf("%v:%d: resumed a rung captured at cycle %d, not before its own activation", c, i, rung.Cycles())
				}
				records++
				prefix += cp.Cycles() - start
				live += cp.Cycles() - rung.Cycles()
			case inject.ProvRecord:
				records++
				if cp != nil {
					prefix += cp.Cycles() - start
					live += cp.Cycles() - start
				}
			}
			ladder := inject.Ladder(r)
			if len(ladder) != inject.RungBins {
				t.Fatalf("%v:%d: the ladder holds %d slots, want %d", c, i, len(ladder), inject.RungBins)
			}
			for bin, cp := range ladder {
				if cp != nil && inject.RungBin(r, cp) != bin {
					t.Fatalf("%v:%d: a rung of bin %d sits in bin %d", c, i, inject.RungBin(r, cp), bin)
				}
			}
		}
	}
	return records, fromRung, prefix, live
}

// TestRungCensus counts the record runs of three studies that resume a
// rung instead of simulating their golden prefix from the pristine
// snapshot: sub8 (every campaign, seed 2003, eight targets per
// function), every campaign-B target, and the syscall model's whole
// target list at scale 3. The floors keep the oracles that compare
// these runs with full runs (core's TestFastForwardFinalStateOracle,
// the CI parity legs) from passing on a ladder that is never used.
func TestRungCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("two studies")
	}
	for _, tc := range []struct {
		name       string
		model      string
		campaigns  []inject.Campaign // nil: the model's own
		scale      int
		maxTargets int
		minRung    int
	}{
		{"sub8", inject.ModelBitflip, nil, 1, 8, 550},
		{"campB", inject.ModelBitflip, []inject.Campaign{inject.CampaignB}, 1, 0, 205},
		{"syscall-s3", inject.ModelSyscall, nil, 3, 0, 38},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.FaultModel = tc.model
			cfg.Campaigns = tc.campaigns
			cfg.Scale = tc.scale
			cfg.MaxTargetsPerFunc = tc.maxTargets
			s, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			records, fromRung, prefix, live := rungCensus(t, s)
			t.Logf("%d record runs, %d resumed from a rung; %d prefix cycles, %d of them live", records, fromRung, prefix, live)
			if fromRung < tc.minRung {
				t.Fatalf("%d of %d record runs resumed from a rung, want at least %d", fromRung, records, tc.minRung)
			}
		})
	}
}
