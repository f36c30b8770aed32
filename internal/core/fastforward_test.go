package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/inject"
	"repro/internal/kernel"
)

// machineDiff names the first difference between two machines' final
// states: the cycle counter, registers, EFLAGS, jiffies, the console,
// and the bytes and permissions of every page either machine changed
// since its snapshot. "" means identical.
func machineDiff(ma, mb *kernel.Machine, sa, sb *kernel.Snapshot) string {
	switch {
	case ma.CPU.Cycles != mb.CPU.Cycles:
		return "cycle counter"
	case ma.CPU.EIP != mb.CPU.EIP || ma.CPU.Regs != mb.CPU.Regs || ma.CPU.Eflags != mb.CPU.Eflags:
		return "registers"
	case ma.ReadGlobal("jiffies") != mb.ReadGlobal("jiffies"):
		return "jiffies"
	case ma.Console.String() != mb.Console.String():
		return "console"
	}
	ca, okA := ma.PagesChangedSince(sa)
	cb, okB := mb.PagesChangedSince(sb)
	if !okA || !okB {
		return "page history"
	}
	for pn := range cb {
		ca[pn] = struct{}{}
	}
	for pn := range ca {
		addr := pn << kernel.PageShift
		if ma.Mem.PermAt(addr) != mb.Mem.PermAt(addr) || !bytes.Equal(ma.Mem.RawPage(pn), mb.Mem.RawPage(pn)) {
			return "page contents"
		}
	}
	return ""
}

// TestFastForwardFinalStateOracle runs studies twice: on the study's
// runner, which fast-forwards hangs and replays checkpoints, and on a
// reference runner. The reference either has GoldenCycles zero, so it
// simulates every cycle, or checkpointing off, so it runs every target
// in full from the pristine snapshot. After every run the Results and
// the final machine states must be identical. A ResultSet does not
// record a hang's cycle count, so the machine comparison is what
// catches a jump that lands whole periods off, or a replay or record
// run that resumes from a wrongly restored state. The fast-forward
// studies must also actually jump some of their hangs, so the oracle
// cannot pass vacuously; inject's TestSyscallCheckpointCensus and
// TestRungCensus count the replays and the rung-resumed record runs of
// the checkpoint studies.
func TestFastForwardFinalStateOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("six studies, twice each")
	}
	cases := []struct {
		name       string
		model      string
		scale      int
		maxTargets int
		minJumped  int
		// noCheckpoint makes the reference a NoCheckpoint runner that
		// fast-forwards like the study's.
		noCheckpoint bool
		// only, when set, runs just these ordinals of each campaign.
		only map[inject.Campaign][]int
	}{
		{"bitflip", "bitflip", 1, 2, 22, false, nil}, // every function at -max-targets 2: 379 runs, 32 hangs, 22 jumped
		{"syscall", "syscall", 1, 0, 5, false, nil},  // the full syscall target list at scale 1: 6 hangs, 6 jumped
		{"disk", "disk", 1, 2, 0, false, nil},
		{"syscall-checkpoint", "syscall", 1, 0, 0, true, nil},    // 76 of 114 runs replay
		{"syscall-checkpoint-s3", "syscall", 3, 0, 0, true, nil}, // 90 of 135 runs replay
		// The point models against full runs, every function at
		// -max-targets 2: record runs resume rungs, siblings replay, and
		// never-reached PCs are synthesized.
		{"bitflip-checkpoint", "bitflip", 1, 2, 0, true, nil},
		{"burst-checkpoint", "burst", 1, 2, 0, true, nil},
		{"regflip-checkpoint", "regflip", 1, 2, 0, true, nil},
		// The ten hangs of sub8 (seed 2003, -max-targets 8) whose watchdog
		// fires inside one kernel call, every one of which must jump:
		// fault-retry loops at A:19 verify_area+0x17, A:32
		// __generic_copy_from_user+0x0, A:134 sys_waitpid+0x72, B:377
		// sys_write+0x19 and C:90 handle_mm_fault+0x2b; loops in the CPU
		// at A:73 recharge_counters+0x1, B:147 add_to_page_cache+0xc,
		// B:341 get_unused_fd+0x12, C:25 recharge_counters+0xb and C:31
		// schedule+0x52.
		{"in-call", "bitflip", 1, 8, 10, false, map[inject.Campaign][]int{
			inject.CampaignA: {19, 32, 73, 134},
			inject.CampaignB: {147, 341, 377},
			inject.CampaignC: {25, 31, 90},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FaultModel = tc.model
			cfg.Campaigns = nil // the model's own campaigns
			cfg.Scale = tc.scale
			cfg.MaxTargetsPerFunc = tc.maxTargets
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ff := s.Runner
			opts := s.runnerOptions()
			opts.NoCheckpoint = tc.noCheckpoint
			ref, err := inject.NewRunnerWithOptions(s.ws, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.noCheckpoint {
				ref.M.GoldenCycles = 0
			}
			// Each runner restores its own pristine snapshot before every
			// run; these equal it, and the page comparison is relative to
			// them.
			sff, sref := ff.M.TakeSnapshot(), ref.M.TakeSnapshot()
			runs, hangs, jumped, synthesized := 0, 0, 0, 0
			for _, c := range s.Cfg.Campaigns {
				targets, err := s.Targets(c)
				if err != nil {
					t.Fatal(err)
				}
				for i, tg := range targets {
					if tc.only != nil && !slices.Contains(tc.only[c], i) {
						continue
					}
					before := ff.M.SkippedCycles()
					got, gf := ff.RunTarget(c, tg)
					want, wf := ref.RunTarget(c, tg)
					if gf != nil || wf != nil {
						t.Fatalf("%v:%d: harness faults %v / %v", c, i, gf, wf)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v:%d (%s): results differ:\nstudy     %+v\nreference %+v", c, i, tg.Func.Name, got, want)
					}
					// A synthesized result runs nothing, so there is no final
					// state to compare.
					if ff.LastProvenance() == inject.ProvSynthesized {
						synthesized++
					} else if d := machineDiff(ff.M, ref.M, sff, sref); d != "" {
						t.Fatalf("%v:%d (%s, %v): final machine states differ in %s", c, i, tg.Func.Name, got.Outcome, d)
					}
					runs++
					if got.Outcome == inject.OutcomeHang {
						hangs++
						if ff.M.SkippedCycles() > before {
							jumped++
						}
					}
				}
			}
			t.Logf("%d runs (%d synthesized), %d hangs, %d jumped", runs, synthesized, hangs, jumped)
			if jumped < tc.minJumped {
				t.Fatalf("only %d of %d hangs jumped, want at least %d", jumped, hangs, tc.minJumped)
			}
		})
	}
}
