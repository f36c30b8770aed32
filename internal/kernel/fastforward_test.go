package kernel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ia32"
)

// The fast-forward rule tests drive crafted hangs and stretches, idle
// and inside one kernel call: each scenario runs twice on freshly
// booted machines, once with hang fast-forward and once with the
// reference arm (GoldenCycles left at zero, so nothing arms), and the
// final states must be identical. Each case also asserts whether a
// jump happened, so a rule that silently stopped applying (or started
// applying where it must not) fails here.

// ffBudget is the watchdog budget of the crafted runs: about 40,000
// idle ticks.
const ffBudget = 20_000_000

// ffScenario is one crafted run: setup patches the booted machine the
// way an injection would, before the workloads start. With capture set,
// the run is a record run: it first records the scenario's golden log,
// then verifies a run against it, as a target's record run does, and
// capture arms the breakpoint that captures the checkpoint. With late
// set, GoldenCycles lies past the watchdog, so only fault-retry
// detection may arm.
type ffScenario struct {
	setup   func(t *testing.T, m *Machine)
	ws      []Workload
	capture func(t *testing.T, m *Machine)
	late    bool
}

// finalState is everything a run can leave behind that a result could
// depend on.
type finalState struct {
	Err     string
	Trace   []string
	Console string
	Cycles  uint64
	EIP     uint32
	Eflags  uint32
	Regs    [8]uint32
	Jiffies uint32
	// Pages maps every page changed since the run started to its
	// permissions and bytes (nil bytes: unmapped).
	Pages map[uint32]string
}

// run boots a machine, applies the scenario and runs it with fast
// forward on or off. It returns the final state and the cycles jumped.
func (sc ffScenario) run(t *testing.T, ff bool) (finalState, uint64) {
	t.Helper()
	m := bootT(t)
	if sc.setup != nil {
		sc.setup(t, m)
	}
	if ff {
		m.GoldenCycles = m.CPU.Cycles // arm at the first idle tick
		if sc.late {
			m.GoldenCycles += 2 * ffBudget
		}
	}
	snap := m.TakeSnapshot()
	var res *RunResult
	if sc.capture != nil {
		// The golden log only needs to reach the capture.
		_, g := m.RecordGolden(sc.ws, 1<<20)
		m.Restore(snap)
		res = m.RecordWorkloads(g, nil, sc.ws, ffBudget, func(m *Machine) { sc.capture(t, m) })
	} else {
		res = m.RunWorkloads(sc.ws, ffBudget)
	}
	st := finalState{
		Trace: res.Trace, Console: res.Console, Cycles: m.CPU.Cycles,
		EIP: m.CPU.EIP, Eflags: m.CPU.Eflags, Regs: m.CPU.Regs,
		Jiffies: m.ReadGlobal("jiffies"), Pages: map[uint32]string{},
	}
	if res.Err != nil {
		st.Err = res.Err.Error()
	}
	for pn := range m.PagesChangedSince(snap) {
		st.Pages[pn] = fmt.Sprintf("%d:%x", m.Mem.PermAt(pn<<PageShift), m.Mem.RawPage(pn))
	}
	return st, m.SkippedCycles()
}

// check runs the scenario on both arms, requires identical final
// states, and returns the fast-forward arm's state and jumped cycles.
func (sc ffScenario) check(t *testing.T) (finalState, uint64) {
	t.Helper()
	want, _ := sc.run(t, false)
	got, skipped := sc.run(t, true)
	t.Logf("fast-forward jumped %d of %d cycles; err %q", skipped, got.Cycles, got.Err)
	if !reflect.DeepEqual(got, want) {
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := 0; i < gv.NumField(); i++ {
			if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
				t.Errorf("fast-forward changed %s", gv.Type().Field(i).Name)
			}
		}
		if got.Cycles != want.Cycles || got.Err != want.Err {
			t.Errorf("cycles %d, want %d; err %q, want %q", got.Cycles, want.Cycles, got.Err, want.Err)
		}
	}
	return got, skipped
}

// sleeper parks its process forever (nothing ever delivers a signal).
var sleeper = Workload{Name: "sleeper", Main: func(u *User) {
	u.Syscall(SysPause)
	u.Logf("woke")
}}

// hookFunc patches kernel function fn the way an injection patches
// text: its first instructions (at least five bytes) move into a stub
// placed in unused arch text, between before and after, and the stub
// jumps back behind them. after may jump over the next two bytes
// (rel8 +2) to skip a trap.
func hookFunc(t *testing.T, m *Machine, fn string, before, after []byte) {
	t.Helper()
	entry, ok := m.Prog.Symbols[fn]
	if !ok {
		t.Fatalf("no function %q", fn)
	}
	text, err := m.Mem.ReadRaw(entry, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for n < 5 {
		inst, err := ia32.Decode(text[n:])
		if err != nil {
			t.Fatalf("%s+%d: %v", fn, n, err)
		}
		n += int(inst.Len)
	}
	stubAddr := uint32(TextArch + TextSize - 0x100)
	stub := append(append(append([]byte(nil), before...), text[:n]...), after...)
	stub = append(stub, jmpRel32(stubAddr+uint32(len(stub)), entry+uint32(n))...)
	patch := append(jmpRel32(entry, stubAddr), bytes.Repeat([]byte{0x90}, n-5)...)
	if err := m.Mem.WriteRaw(stubAddr, stub); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.WriteRaw(entry, patch); err != nil {
		t.Fatal(err)
	}
}

// jmpRel32 encodes "jmp to" placed at from.
func jmpRel32(from, to uint32) []byte {
	b := []byte{0xE9, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[1:], to-from-5)
	return b
}

func abs32(op []byte, addr uint32) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), op...), addr)
}

// ud2 is the trap the time bombs below detonate: an invalid-opcode
// crash at a known place.
var ud2 = []byte{0x0F, 0x0B}

// TestFastForwardStopsShortOfWakeTime: a task sleeps until a future
// TASK_WAKETIME. do_timer compares jiffies with it every tick, so the
// jump must stop short of the wake time, and the wake-up runs
// concretely.
func TestFastForwardStopsShortOfWakeTime(t *testing.T) {
	got, skipped := ffScenario{ws: []Workload{{Name: "napper", Main: func(u *User) {
		u.Syscall(SysNanosleep, 5000)
		u.Logf("woke at %d", u.Syscall(SysTime))
	}}}}.check(t)
	if got.Err != "" {
		t.Fatalf("run failed: %s", got.Err)
	}
	if skipped == 0 {
		t.Fatal("no jump over the sleep")
	}
}

// TestFastForwardRejectsMovFromJiffies: a time bomb reads jiffies with
// a mov every tick and traps once it passes a threshold. The mov
// rejects every probe, so nothing is jumped and the bomb goes off on
// time.
func TestFastForwardRejectsMovFromJiffies(t *testing.T) {
	got, skipped := ffScenario{
		setup: func(t *testing.T, m *Machine) {
			bomb := m.ReadGlobal("jiffies") + 3000
			hookFunc(t, m, "update_process_times", append(append(append(
				abs32([]byte{0x8B, 0x15}, m.Symbol("jiffies")), // mov edx, [jiffies]
				abs32([]byte{0x81, 0xFA}, bomb)...),            // cmp edx, bomb
				0x72, 0x02), // jb +2
				append(ud2, 0x31, 0xD2)...), // ud2; xor edx, edx
				nil)
		},
		ws: []Workload{sleeper},
	}.check(t)
	if got.Err == "" || got.Err == ErrHang.Error() {
		t.Fatalf("err = %q, want the bomb's crash", got.Err)
	}
	if skipped != 0 {
		t.Fatalf("jumped %d cycles past a mov from jiffies", skipped)
	}
}

// TestFastForwardRejectsFlagReadAfterInc: after do_timer's inc of
// jiffies, a jno reads the overflow flag and traps when jiffies turns
// negative. The inc's flags are not dead, so nothing is jumped.
func TestFastForwardRejectsFlagReadAfterInc(t *testing.T) {
	got, skipped := ffScenario{
		setup: func(t *testing.T, m *Machine) {
			if err := m.WriteGlobal("jiffies", 1<<31-3000); err != nil {
				t.Fatal(err)
			}
			hookFunc(t, m, "do_timer", nil, append([]byte{0x71, 0x02}, ud2...)) // jno +2; ud2
		},
		ws: []Workload{sleeper},
	}.check(t)
	if got.Err == "" || got.Err == ErrHang.Error() {
		t.Fatalf("err = %q, want the bomb's crash", got.Err)
	}
	if skipped != 0 {
		t.Fatalf("jumped %d cycles past a flag read after inc [jiffies]", skipped)
	}
}

// TestFastForwardInterruptsOff: with interrupts disabled the timer
// never fires, so jiffies never changes and the idle stretch repeats
// exactly; the jump runs the hang to its watchdog.
func TestFastForwardInterruptsOff(t *testing.T) {
	got, skipped := ffScenario{
		setup: func(t *testing.T, m *Machine) { m.CPU.Eflags &^= interruptFlag },
		ws: []Workload{{Name: "napper", Main: func(u *User) {
			u.Syscall(SysNanosleep, 5)
			u.Logf("woke")
		}}},
	}.check(t)
	if got.Err != ErrHang.Error() {
		t.Fatalf("err = %q, want a hang", got.Err)
	}
	if skipped < ffBudget/2 {
		t.Fatalf("jumped %d cycles of a %d-cycle exact-repeat hang", skipped, ffBudget)
	}
}

// TestFastForwardRejectsConsoleOutput: a patched timer path prints a
// byte every tick. Port I/O rejects the probe (and the console differs
// between the period's ends), so nothing is jumped.
func TestFastForwardRejectsConsoleOutput(t *testing.T) {
	got, skipped := ffScenario{
		setup: func(t *testing.T, m *Machine) {
			hookFunc(t, m, "update_process_times", []byte{0xE6, PortConsole}, nil) // out 0xE9, al
		},
		ws: []Workload{sleeper},
	}.check(t)
	if got.Err != ErrHang.Error() {
		t.Fatalf("err = %q, want a hang", got.Err)
	}
	if skipped != 0 {
		t.Fatalf("jumped %d cycles of console output", skipped)
	}
}

// TestFastForwardWaitsForAging: the sleeper leaves present, writable
// PTEs behind, which the page-aging daemon write-protects when its
// round-robin reaches the slot. Jumping over that pass would skip the
// protection, so fast-forward waits until aging has nothing left to do
// and only then jumps.
func TestFastForwardWaitsForAging(t *testing.T) {
	got, skipped := ffScenario{ws: []Workload{{Name: "toucher", Main: func(u *User) {
		heap := uint32(u.Syscall(SysBrk, 0))
		u.Syscall(SysBrk, heap+6*PageSize)
		for i := uint32(0); i < 6; i++ {
			u.Poke(heap+i*PageSize, i)
		}
		u.Syscall(SysNanosleep, 20000)
		u.Poke(heap, 42)
		u.Logf("woke")
	}}}}.check(t)
	if got.Err != "" {
		t.Fatalf("run failed: %s", got.Err)
	}
	if skipped == 0 {
		t.Fatal("no jump once aging was done")
	}
}

// TestFastForwardProofRules checks the proof's flag and horizon rules
// on single instructions.
func TestFastForwardProofRules(t *testing.T) {
	p := ffProof{horizon: ^uint32(0)}
	p.bound(100, 250) // jiffies 100 against a wake time of 250
	if p.horizon != 149 {
		t.Errorf("horizon %d, want 149: jiffies may advance to 249, not to 250", p.horizon)
	}
	p.bound(300, 250) // past the wake time: fixed until the signed wrap
	if p.horizon != 149 {
		t.Errorf("horizon %d after a later threshold", p.horizon)
	}
	q := ffProof{horizon: ^uint32(0)}
	q.bound(1<<31-10, 5)
	if q.horizon != 9 {
		t.Errorf("horizon %d, want 9 (the signed wrap)", q.horizon)
	}
	for _, c := range []ia32.Cond{ia32.CondO, ia32.CondNO, ia32.CondS, ia32.CondNS, ia32.CondP, ia32.CondNP} {
		if orderCond(c) {
			t.Errorf("condition %v accepted", c)
		}
	}
	for _, c := range []ia32.Cond{ia32.CondB, ia32.CondAE, ia32.CondE, ia32.CondNE, ia32.CondBE, ia32.CondA,
		ia32.CondL, ia32.CondGE, ia32.CondLE, ia32.CondG} {
		if !orderCond(c) {
			t.Errorf("condition %v rejected", c)
		}
	}
	if flagsWritten(&ia32.Inst{Op: ia32.OpShl}) != 0 {
		t.Error("a shift must not count as overwriting flags (its count may be zero)")
	}
}

// pider makes one getpid call, which the in-call scenarios patch into
// a loop that never returns.
var pider = Workload{Name: "pider", Main: func(u *User) {
	u.Logf("pid %d", u.Syscall(SysGetpid))
}}

// loopInGetpid returns a scenario whose getpid runs loop, placed at the
// start of the patch stub.
func loopInGetpid(loop []byte) ffScenario {
	return ffScenario{
		setup: func(t *testing.T, m *Machine) { hookFunc(t, m, "sys_getpid", loop, nil) },
		ws:    []Workload{pider},
	}
}

// backTo returns a jmp rel8 from the end of code back to its start.
func backTo(code ...byte) []byte {
	return append(code, 0xEB, byte(-(len(code) + 2)))
}

// checkInCallHang runs the scenario and requires a hang, jumped or not.
func checkInCallHang(t *testing.T, sc ffScenario, wantJump bool) {
	t.Helper()
	got, skipped := sc.check(t)
	if got.Err != ErrHang.Error() {
		t.Fatalf("err = %q, want a hang", got.Err)
	}
	switch {
	case wantJump && skipped < ffBudget/2:
		t.Fatalf("jumped %d cycles of a %d-cycle in-call hang", skipped, ffBudget)
	case !wantJump && skipped != 0:
		t.Fatalf("jumped %d cycles of a stretch that does not repeat", skipped)
	}
}

// TestFastForwardInCallJmpSelf: jmp . inside a kernel call repeats
// exactly with a one-instruction period, and the hang is jumped.
func TestFastForwardInCallJmpSelf(t *testing.T) {
	checkInCallHang(t, loopInGetpid([]byte{0xEB, 0xFE}), true)
}

// TestFastForwardInCallArmsAfterRecordedPrefix: the looping call
// starts while a record run verifies its prefix, counts down for more
// than ffCallCycles, and only then passes the breakpoint that captures
// the checkpoint and ends the verification. So the call's first
// detection point comes while it may not fast-forward, and CPU.Run must
// still stop at a later point, where the jmp . after the breakpoint is
// jumped.
func TestFastForwardInCallArmsAfterRecordedPrefix(t *testing.T) {
	loop := binary.LittleEndian.AppendUint32([]byte{0xB9}, 4*ffCallCycles) // mov ecx, n
	loop = append(loop, 0x49, 0x75, 0xFD)                                  // dec ecx; jnz -3
	bp := len(loop)
	loop = append(loop, 0x90, 0xEB, 0xFE) // nop (the breakpoint); jmp .
	sc := loopInGetpid(loop)
	sc.capture = func(t *testing.T, m *Machine) {
		m.CPU.OnBreakpoint = func(c *cpu.CPU, dr int) {
			if m.CaptureCheckpoint() == nil {
				t.Error("no record run to capture")
			}
			c.ClearBreakpoint(dr)
		}
		m.CPU.SetBreakpoint(0, uint32(TextArch+TextSize-0x100+bp))
	}
	checkInCallHang(t, sc, true)
}

// TestFastForwardInCallSameStore: a loop that stores the same value
// every period writes its page, but the page matches the reference,
// so the hang is jumped.
func TestFastForwardInCallSameStore(t *testing.T) {
	checkInCallHang(t, ffScenario{
		setup: func(t *testing.T, m *Machine) {
			store := append(abs32([]byte{0xC7, 0x05}, m.Symbol("umask_val")), 0x5A, 0x5A, 0x5A, 0x5A) // mov dword [umask_val], imm
			hookFunc(t, m, "sys_getpid", backTo(store...), nil)
		},
		ws: []Workload{pider},
	}, true)
}

// TestFastForwardInCallCounter: a loop that adds to a memory counter
// repeats its registers and EFLAGS every period, but not its memory,
// so nothing is jumped.
func TestFastForwardInCallCounter(t *testing.T) {
	checkInCallHang(t, ffScenario{
		setup: func(t *testing.T, m *Machine) {
			add := append(abs32([]byte{0x81, 0x05}, m.Symbol("umask_val")), 0x00, 0x01, 0x00, 0x00) // add dword [umask_val], 0x100
			hookFunc(t, m, "sys_getpid", backTo(add...), nil)
		},
		ws: []Workload{pider},
	}, false)
}

// TestFastForwardInCallFaultRetry: getpid marks a page of its task's
// arena present in the task's page table without mapping it, then
// reads it. do_page_fault finds the PTE present and reports the fault
// handled without mapping anything, so the read faults again forever:
// a fault-retry loop, which is jumped.
func TestFastForwardInCallFaultRetry(t *testing.T) {
	checkInCallHang(t, faultRetryInGetpid(), true)
}

// TestFastForwardFaultRetryBeforeGolden: the fault-retry loop starts
// long before GoldenCycles, which here lies past the watchdog, so idle
// and CPU-loop detection never arm. Fault-retry detection does not wait
// for GoldenCycles: the loop is jumped.
func TestFastForwardFaultRetryBeforeGolden(t *testing.T) {
	sc := faultRetryInGetpid()
	sc.late = true
	checkInCallHang(t, sc, true)
}

// faultRetryInGetpid is TestFastForwardInCallFaultRetry's scenario.
func faultRetryInGetpid() ffScenario {
	const page = 0x40 // inside the arena's first VMA
	var stub []byte
	stub = append(stub, 0x8B, 0x1D) // mov ebx, [current]
	stub = binary.LittleEndian.AppendUint32(stub, 0)
	stub = append(stub, 0x81, 0x8B) // or dword [ebx+TaskPTEs+page*4], PTEPresent
	stub = binary.LittleEndian.AppendUint32(stub, TaskPTEs+page*4)
	stub = binary.LittleEndian.AppendUint32(stub, PTEPresent)
	stub = append(stub, 0x8B, 0x43, TaskArena) // mov eax, [ebx+TaskArena]
	stub = append(stub, 0x8B, 0x80)            // mov eax, [eax+page*PageSize]
	stub = binary.LittleEndian.AppendUint32(stub, page*PageSize)
	return ffScenario{
		setup: func(t *testing.T, m *Machine) {
			binary.LittleEndian.PutUint32(stub[2:], m.Symbol("current"))
			hookFunc(t, m, "sys_getpid", stub, nil)
		},
		ws: []Workload{pider},
	}
}

// TestFastForwardInCallCountdown: a register countdown that would end
// just past the watchdog never repeats its registers, so nothing is
// jumped and the watchdog fires inside the countdown.
func TestFastForwardInCallCountdown(t *testing.T) {
	countdown := func(n uint32) ffScenario {
		loop := binary.LittleEndian.AppendUint32([]byte{0xB9}, n) // mov ecx, n
		loop = append(loop, 0x49, 0x75, 0xFD)                     // dec ecx; jnz -3
		return loopInGetpid(loop)
	}
	// Measure how many iterations fit before the watchdog, then count
	// down from just past that.
	st, _ := countdown(ffBudget).run(t, false)
	n := ffBudget - st.Regs[ia32.ECX] + 4
	checkInCallHang(t, countdown(n), false)
}

// TestFastForwardInCallConsole: a loop that writes the console port
// repeats its registers and memory, but the console grows every
// period, so nothing is jumped.
func TestFastForwardInCallConsole(t *testing.T) {
	checkInCallHang(t, loopInGetpid(backTo(0xE6, PortConsole)), false) // out 0xE9, al
}

// TestFastForwardJumpLength: a jump covers whole periods and leaves at
// least one full period, and at most two, before the watchdog, so the
// watchdog fires in real execution.
func TestFastForwardJumpLength(t *testing.T) {
	m := &Machine{CPU: &cpu.CPU{}, CycleLimit: 1000}
	for _, tc := range []struct{ cycles, cost, want uint64 }{
		{100, 100, 8}, // 900 left: jump 800, run the last 100
		{150, 100, 7}, // 850 left: jump 700, run 150
		{100, 450, 1},
		{100, 500, 0}, // one period left: nothing to jump
		{999, 1, 0},
		{1000, 1, 0},
		{100, 0, 0},
	} {
		m.CPU.Cycles = tc.cycles
		if got := m.ffPeriods(tc.cost); got != tc.want {
			t.Errorf("at %d, period %d: %d periods, want %d", tc.cycles, tc.cost, got, tc.want)
		}
	}
}
