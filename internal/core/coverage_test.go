package core

import (
	"reflect"
	"testing"

	"repro/internal/inject"
)

// TestCoverageSynthesisOracle runs three point-model studies twice: on
// the study's runner, which answers every target at a PC its golden
// run never reached without running it, and on a NoCheckpoint runner,
// which runs every target in full. Each Result must be identical and
// no run may fault. The bitflip study must synthesize at least 90
// targets, so the oracle cannot pass vacuously.
func TestCoverageSynthesisOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("three studies, twice each")
	}
	cases := []struct {
		model          string
		maxFuncs       int
		minSynthesized int
	}{
		{"bitflip", 0, 90}, // every function at -max-targets 2: 379 runs, 98 never reached
		{"burst", 3, 0},
		{"regflip", 3, 0},
	}
	for _, tc := range cases {
		t.Run(tc.model, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FaultModel = tc.model
			cfg.Campaigns = nil // the model's own campaigns
			cfg.MaxFuncsPerCampaign = tc.maxFuncs
			cfg.MaxTargetsPerFunc = 2
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
			runs, synthesized := 0, 0
			for _, c := range s.Cfg.Campaigns {
				targets, err := s.Targets(c)
				if err != nil {
					t.Fatal(err)
				}
				for i, tg := range targets {
					reached, known := s.Runner.GoldenReached(tg.InstAddr)
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
					if known && !reached {
						synthesized++
						if s.Runner.M.CPU.Cycles != before {
							t.Fatalf("%v:%d (%s): a never-reached target ran the machine", c, i, tg.Describe())
						}
					}
				}
			}
			t.Logf("%d runs, %d synthesized", runs, synthesized)
			if synthesized < tc.minSynthesized {
				t.Fatalf("only %d targets synthesized, want at least %d", synthesized, tc.minSynthesized)
			}
		})
	}
}
