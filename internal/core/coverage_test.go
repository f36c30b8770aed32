package core

import (
	"reflect"
	"testing"

	"repro/internal/inject"
)

// TestCoverageSynthesisOracle runs point-model studies twice: on the
// study's runner, which answers from the golden run every target at a
// PC it never reached and every corrupted branch that takes the golden
// way at every golden start, and on a NoCheckpoint runner, which runs
// every target in full. Each Result must be identical, no run may
// fault, and no answered target may run the machine. The floors keep
// the oracle from passing vacuously.
func TestCoverageSynthesisOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("six studies, twice each")
	}
	campB := []inject.Campaign{inject.CampaignB}
	cases := []struct {
		name           string
		model          string
		campaigns      []inject.Campaign // nil: the model's own
		maxFuncs       int
		maxTargets     int
		noAssertions   bool
		minSynthesized int
		minMasked      int
	}{
		{"bitflip", "bitflip", nil, 0, 2, false, 90, 30}, // every function at -max-targets 2: 379 runs, 98 never reached, 35 masked
		{"burst", "burst", nil, 3, 2, false, 0, 0},
		{"regflip", "regflip", nil, 3, 2, false, 0, 0},
		// Every campaign-B target: 906 runs, 330 never reached and 231
		// masked at seed 2003, on either kernel build.
		{"bitflip-B", "bitflip", campB, 0, 0, false, 0, 225},
		{"bitflip-B-no-assertions", "bitflip", campB, 0, 0, true, 0, 225},
		{"burst-B", "burst", campB, 0, 2, false, 0, 36}, // 170 runs, 42 masked
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FaultModel = tc.model
			cfg.Campaigns = tc.campaigns
			cfg.MaxFuncsPerCampaign = tc.maxFuncs
			cfg.MaxTargetsPerFunc = tc.maxTargets
			cfg.DisableAssertions = tc.noAssertions
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := s.runnerOptions()
			opts.NoCheckpoint = true
			ref, err := inject.NewRunnerWithOptions(s.ws, opts)
			if err != nil {
				t.Fatal(err)
			}
			runs, synthesized, masked := 0, 0, 0
			for _, c := range s.Cfg.Campaigns {
				targets, err := s.Targets(c)
				if err != nil {
					t.Fatal(err)
				}
				for i, tg := range targets {
					before := s.Runner.M.CPU.Cycles
					got, gf := s.Runner.RunTarget(c, tg)
					want, wf := ref.RunTarget(c, tg)
					if gf != nil || wf != nil {
						t.Fatalf("%v:%d: harness faults %v / %v", c, i, gf, wf)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v:%d (%s): results differ:\nstudy runner %+v\nfull run     %+v", c, i, tg.Describe(), got, want)
					}
					runs++
					switch prov := s.Runner.LastProvenance(); prov {
					case inject.ProvSynthesized, inject.ProvMasked:
						if prov == inject.ProvMasked {
							masked++
						} else {
							synthesized++
						}
						if s.Runner.M.CPU.Cycles != before {
							t.Fatalf("%v:%d (%s): a target answered from the golden run ran the machine", c, i, tg.Describe())
						}
					}
				}
			}
			t.Logf("%d runs, %d synthesized, %d masked", runs, synthesized, masked)
			if synthesized < tc.minSynthesized {
				t.Fatalf("only %d targets synthesized, want at least %d", synthesized, tc.minSynthesized)
			}
			if masked < tc.minMasked {
				t.Fatalf("only %d targets masked, want at least %d", masked, tc.minMasked)
			}
		})
	}
}
