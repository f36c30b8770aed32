package cpu_test

// Premises of in-call hang fast-forward (internal/kernel/fastforward.go).
// Inside one kernel call the kernel package proves that the machine
// repeats exactly from the CPU and memory state alone, and it cuts
// CPU.Run short at its detection points. Both rest on facts about this
// package that nothing else pins:
//   - no instruction reads the cycle counter, and `in` reads only what
//     OnIn supplies, so no instruction can observe where in the cycle
//     budget it runs;
//   - a Run cut at any point and continued to the same cycle limit ends
//     exactly where the uncut Run does.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ia32"
)

// TestCycleCounterUnreadable: RDTSC (0F 31) and RDPMC (0F 33) raise
// #UD, and `in` returns OnIn's value whatever the cycle counter reads.
// An instruction that read the cycle counter would break the exact
// repeat that in-call fast-forward proves; this test fails first.
func TestCycleCounterUnreadable(t *testing.T) {
	for _, blocks := range []bool{true, false} {
		for _, code := range [][]byte{{0x0F, 0x31}, {0x0F, 0x33}} {
			m := build(t, "nop\n")
			m.cpu.DisableBlocks = !blocks
			if err := m.mem.WriteRaw(textBase, code); err != nil {
				t.Fatal(err)
			}
			m.cpu.EIP = textBase
			reason, exc := m.cpu.Run(100)
			if reason != cpu.StopException || exc.Vector != cpu.VecUD || exc.EIP != textBase {
				t.Errorf("blocks %v: % x: stop %v, exception %v; want invalid opcode", blocks, code, reason, exc)
			}
		}

		m := build(t, "talk:\n\tin eax, 0x60\n\tmov ebx, eax\n\tin eax, 0x60\n\tret\n")
		m.cpu.DisableBlocks = !blocks
		m.cpu.OnIn = func(uint16, bool) uint32 { return 0x5EED }
		for _, cycles := range []uint64{0, 12345, 1 << 40} {
			m.cpu.Cycles = cycles
			if got := mustReturn(t, m, "talk"); got != 0x5EED || m.cpu.Regs[ia32.EBX] != 0x5EED {
				t.Errorf("blocks %v at cycle %d: in read %#x and %#x, want OnIn's %#x",
					blocks, cycles, m.cpu.Regs[ia32.EBX], got, 0x5EED)
			}
		}
	}
}

// TestRunSplitEquivalence: on random programs, a Run cut at a random
// point and continued with the budget left to the same cycle limit
// leaves the same registers, EIP, EFLAGS, cycle counter, memory and
// stop reason as one uncut Run, with blocks on and off. (The second
// budget is measured from where the first Run stopped: an instruction
// that started before the cut may end past it.)
func TestRunSplitEquivalence(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for seed := 0; seed < trials; seed++ {
		for _, blocks := range []bool{true, false} {
			seed, blocks := seed, blocks
			t.Run(fmt.Sprintf("seed=%d/blocks=%v", seed, blocks), func(t *testing.T) {
				t.Parallel()
				splitTrial(t, int64(seed), blocks)
			})
		}
	}
}

func splitTrial(t *testing.T, seed int64, blocks bool) {
	rng := rand.New(rand.NewSource(0x5917 + seed))
	src := randOracleProgram(rng, false)
	whole, split := build(t, src), build(t, src)
	whole.cpu.DisableBlocks, split.cpu.DisableBlocks = !blocks, !blocks
	entry := whole.prog.Symbols["oracle_entry"]
	whole.cpu.EIP, split.cpu.EIP = entry, entry
	for chunk := 0; chunk < 100; chunk++ {
		tag := fmt.Sprintf("seed %d chunk %d", seed, chunk)
		budget := uint64(1 + rng.Intn(2000))
		cut := uint64(rng.Int63n(int64(budget) + 1))
		limit := split.cpu.Cycles + budget
		rw, ew := whole.cpu.Run(budget)
		rs, es := split.cpu.Run(cut)
		if rs == cpu.StopBudget {
			var rest uint64
			if split.cpu.Cycles < limit {
				rest = limit - split.cpu.Cycles
			}
			rs, es = split.cpu.Run(rest)
		}
		if rw != rs || (ew == nil) != (es == nil) || (ew != nil && *ew != *es) {
			t.Fatalf("%s (cut %d of %d): stop %v %v uncut, %v %v cut", tag, cut, budget, rw, ew, rs, es)
		}
		if sw, ss := whole.cpu.CaptureState(), split.cpu.CaptureState(); sw != ss {
			t.Fatalf("%s (cut %d of %d): state diverged:\nuncut: %+v\ncut:   %+v", tag, cut, budget, sw, ss)
		}
		for _, base := range []uint32{dataBase, stackTop - stackSize} {
			bw, _ := whole.mem.ReadRaw(base, 0x10000)
			bs, _ := split.mem.ReadRaw(base, 0x10000)
			if string(bw) != string(bs) {
				t.Fatalf("%s (cut %d of %d): memory at %#x diverged", tag, cut, budget, base)
			}
		}
		if rw != cpu.StopBudget {
			return // trap, halt or host return: trial over
		}
	}
}
