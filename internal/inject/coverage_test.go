package inject

import (
	"testing"

	"repro/internal/cpu"
)

// breakpointFires runs r's golden workload from its pristine snapshot
// with an execute breakpoint at pc that changes nothing, and reports
// whether it fired.
func breakpointFires(r *Runner, pc uint32) bool {
	m := r.M
	m.Restore(r.snap)
	fired := false
	m.CPU.OnBreakpoint = func(c *cpu.CPU, dr int) {
		fired = true
		c.ClearBreakpoint(dr)
	}
	m.CPU.SetBreakpoint(0, pc)
	m.RunWorkloads(r.Workloads, r.Budget)
	m.CPU.OnBreakpoint = nil
	m.CPU.ClearBreakpoint(0)
	return fired
}

// TestCoverageMatchesBreakpoints: the golden run's coverage of a PC
// must be exactly whether an execute breakpoint there fires on a
// NoCheckpoint runner, at every instruction start of a function the
// workload never runs (cpu_idle), two hot ones, and one whose error
// paths the workload leaves mostly unexplored (open_namei).
func TestCoverageMatchesBreakpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("one golden-length run per instruction")
	}
	ckpt, ref := newRunnersT(t)
	if _, known := ref.GoldenReached(ckpt.M.Prog.Symbols["schedule"]); known {
		t.Fatal("a NoCheckpoint runner recorded coverage")
	}
	for _, name := range []string{"cpu_idle", "do_generic_file_read", "schedule", "open_namei"} {
		fn, ok := ckpt.M.Prog.FuncByName(name)
		if !ok {
			t.Fatalf("no function %s", name)
		}
		_, addrs, err := decodeFunc(ckpt.M.Prog, fn)
		if err != nil {
			t.Fatal(err)
		}
		reached := 0
		for _, pc := range addrs {
			got, known := ckpt.GoldenReached(pc)
			if !known {
				t.Fatalf("%s+%#x: coverage unknown", name, pc-fn.Addr)
			}
			if want := breakpointFires(ref, pc); got != want {
				t.Errorf("%s+%#x: coverage says reached=%v, the breakpoint fired=%v", name, pc-fn.Addr, got, want)
			}
			if got {
				reached++
			}
		}
		t.Logf("%s: %d of %d instruction starts reached", name, reached, len(addrs))
		if name == "cpu_idle" && reached != 0 || name != "cpu_idle" && (reached == 0 || reached == len(addrs)) {
			t.Errorf("%s: %d of %d reached; the cases no longer cover both answers", name, reached, len(addrs))
		}
	}
}

// TestRecordRunMissingReachedPCFaults: a record run whose breakpoint
// never fires at a PC the golden run reached has left its golden path.
// It must surface as a harness fault, never as a Not Activated result.
func TestRecordRunMissingReachedPCFaults(t *testing.T) {
	ckpt, _ := newRunnersT(t)
	fn, _ := ckpt.M.Prog.FuncByName("do_generic_file_read")
	if reached, _ := ckpt.GoldenReached(fn.Addr); !reached {
		t.Fatal("golden run never entered do_generic_file_read")
	}
	ckpt.Workloads = nil // the record run now executes no workload
	_, hf := ckpt.RunTarget(CampaignA, Target{Func: fn, InstAddr: fn.Addr, InstLen: 1, Bit: 1})
	if hf == nil || hf.Kind != FaultReplayDiverged {
		t.Fatalf("fault = %v, want %s", hf, FaultReplayDiverged)
	}
}
