package cpu_test

// Differential oracle for the superblock trace-execution engine: a CPU
// running with blocks enabled must be observationally identical — same
// registers, flags, EIP, cycle counter, stop reason, exception and
// memory image — to the single-step reference loop at every run
// boundary. The tests here run the two engines in lockstep over random
// programs with small random cycle budgets (the cycle-charging
// identity guarantees both arms stop at the same instruction), and
// interleave the events the injection harness generates: breakpoints
// that self-modify code, raw code writes, and snapshot/restore cycles
// (modeled on the COW fuzz oracle in internal/mem).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// oracleRegs are the registers the generator uses freely; ESP is
// reserved for the (balanced) stack templates.
var oracleRegs = []string{"eax", "ebx", "ecx", "edx", "esi", "edi"}

var oracleConds = []string{"z", "nz", "c", "nc", "s", "ns", "o", "no", "l", "ge", "le", "g", "b", "ae", "be", "a", "p", "np"}

// oracleEdges are the operand values around the zero, sign and
// unsigned-wrap edges of 32-bit arithmetic.
var oracleEdges = []int32{0, 1, -1, 2, 0x7FFFFFFF, -0x80000000, 0x7FFFFFFE, -0x7FFFFFFF}

// oracleFoldConds are the conditions the lazy-flag record has no rule
// for after inc/dec: a jcc on them folds the record first.
var oracleFoldConds = []string{"o", "no", "p", "np"}

// randOracleProgram emits a random but assemblable program: a ring of
// labeled snippets full of ALU, memory, shift, string and stack work,
// chained by unconditional and conditional jumps so execution never
// leaves the ring (until the budget, a generated trap, or damage from
// a code-write event stops it). Flag-setting instructions are often
// followed by a mid-snippet jcc, so every condition is read right
// after every flag-setting shape. With edgesOnly every instruction slot
// is an edge template (see below).
func randOracleProgram(rng *rand.Rand, edgesOnly bool) string {
	reg := func() string { return oracleRegs[rng.Intn(len(oracleRegs))] }
	reg2 := func(not string) string {
		for {
			if r := reg(); r != not {
				return r
			}
		}
	}
	disp := func() int { return rng.Intn(4096) * 4 } // word-aligned within buf
	// imm is small half the time, so compares often see equal operands.
	imm := func() int64 {
		if rng.Intn(2) == 0 {
			return int64(rng.Intn(4))
		}
		return int64(rng.Int31())
	}
	var b []byte
	emit := func(format string, args ...any) {
		b = append(b, []byte("\t"+fmt.Sprintf(format, args...)+"\n")...)
	}
	n := 4 + rng.Intn(8)
	edge := 0 // edge-template labels
	// jcc sometimes branches into the ring on the flags just set.
	jcc := func(conds []string) {
		if rng.Intn(3) == 0 {
			emit("j%s L%d", conds[rng.Intn(len(conds))], rng.Intn(n))
		}
	}

	b = append(b, []byte(".section data\nbuf: .skip 16384\n.section text\nsub0:\n\tinc eax\n\tret\nsub1:\n\txor edx, edx\n\tret\noracle_entry:\n")...)

	for i := 0; i < n; i++ {
		b = append(b, []byte(fmt.Sprintf("L%d:\n", i))...)
		for k := 2 + rng.Intn(9); k > 0; k-- {
			v := rng.Intn(100)
			if edgesOnly {
				v = 0
			}
			switch {
			case v < 8:
				// Edge template: a flag-setting op on operands at or
				// one off the zero, sign and unsigned-wrap edges, then
				// jccs on several conditions that all read its flags.
				// Each skips a flag-neutral lea, so a condition that
				// evaluates wrong shows in acc without leaving the
				// snippet.
				r, d := reg(), disp()
				acc := reg2(r)
				x := oracleEdges[rng.Intn(len(oracleEdges))]
				y := x
				if rng.Intn(2) == 0 {
					y += int32(rng.Intn(2))*2 - 1
				}
				emit("mov %s, %d", r, x)
				conds := oracleConds
				switch rng.Intn(7) {
				case 0:
					emit("cmp %s, %d", r, y)
				case 1:
					emit("mov dword [buf+%d], %d", d, y)
					emit("cmp %s, [buf+%d]", r, d)
				case 2:
					emit("mov dword [buf+%d], %d", d, x)
					emit("cmp dword [buf+%d], %d", d, y)
				case 3:
					emit("%s %s, %d", []string{"add", "sub"}[rng.Intn(2)], r, y)
				case 4:
					emit("test %s, %s", r, r)
				case 5:
					emit("%s %s, %d", []string{"and", "or", "xor"}[rng.Intn(3)], r, y)
				default:
					emit("%s %s", []string{"inc", "dec"}[rng.Intn(2)], r)
					if rng.Intn(2) == 0 {
						conds = oracleFoldConds
					}
				}
				for j := 1 + rng.Intn(6); j > 0; j-- {
					edge++
					emit("j%s E%d", conds[rng.Intn(len(conds))], edge)
					emit("lea %s, [%s+%d]", acc, acc, j)
					b = append(b, []byte(fmt.Sprintf("E%d:\n", edge))...)
				}
			case v < 20:
				op := []string{"add", "sub", "xor", "and", "or", "adc", "sbb", "cmp", "test", "mov", "xchg"}[rng.Intn(11)]
				emit("%s %s, %s", op, reg(), reg())
				if op != "mov" && op != "xchg" {
					jcc(oracleConds)
				}
			case v < 28:
				op := []string{"add", "sub", "xor", "and", "or", "cmp", "test", "mov"}[rng.Intn(8)]
				emit("%s %s, %d", op, reg(), imm())
				if op != "mov" {
					jcc(oracleConds)
				}
			case v < 34:
				op := []string{"add", "sub", "cmp", "and", "or", "xor"}[rng.Intn(6)]
				emit("%s %s, [buf+%d]", op, reg(), disp())
				jcc(oracleConds)
			case v < 38:
				if rng.Intn(2) == 0 {
					emit("%s dword [buf+%d], %d", []string{"cmp", "test"}[rng.Intn(2)], disp(), imm())
				} else {
					emit("%s [buf+%d], %s", []string{"cmp", "test"}[rng.Intn(2)], disp(), reg())
				}
				jcc(oracleConds)
			case v < 46:
				switch rng.Intn(3) {
				case 0:
					emit("mov %s, [buf+%d]", reg(), disp())
				case 1:
					emit("mov [buf+%d], %s", disp(), reg())
				default:
					emit("mov dword [buf+%d], %d", disp(), imm())
				}
			case v < 49:
				op := []string{"movzx", "movsx"}[rng.Intn(2)]
				emit("%s %s, byte [buf+%d]", op, reg(), disp())
			case v < 56:
				op := []string{"inc", "dec", "neg", "not"}[rng.Intn(4)]
				emit("%s %s", op, reg())
				if op == "inc" || op == "dec" {
					if rng.Intn(2) == 0 {
						jcc(oracleFoldConds)
					} else {
						jcc(oracleConds)
					}
				} else if op == "neg" {
					jcc(oracleConds)
				}
			case v < 62:
				op := []string{"shl", "shr", "sar", "rol", "ror"}[rng.Intn(5)]
				emit("%s %s, %d", op, reg(), rng.Intn(32))
				jcc(oracleConds)
			case v < 65:
				emit("imul %s, %s", reg(), reg())
			case v < 71:
				if rng.Intn(3) == 0 {
					emit("push %d", imm())
				} else {
					emit("push %s", reg())
				}
				emit("pop %s", reg())
			case v < 74:
				emit("lea %s, [buf+%s+%d]", reg(), reg2("esp"), rng.Intn(64))
			case v < 76:
				emit("cdq")
			case v < 78:
				// Possible #DE when the divisor register holds zero:
				// exception parity is part of the contract.
				emit("xor edx, edx")
				emit("div %s", reg2("edx"))
			case v < 86:
				// String template. Keep ranges inside buf; small counts
				// when the direction flag is set, page-crossing counts
				// when clear (the bulk path).
				dir, cnt := "cld", 1+rng.Intn(1500)
				if rng.Intn(4) == 0 {
					dir, cnt = "std", 1+rng.Intn(16)
				}
				so, do := rng.Intn(2048)*4, rng.Intn(2048)*4
				emit("%s", dir)
				emit("mov esi, buf+%d", 8192+so/2)
				emit("mov edi, buf+%d", do)
				emit("mov ecx, %d", cnt)
				sop := []string{"rep movsb", "rep movsd", "rep stosb", "rep stosd", "rep lodsb", "repne scasb", "repe cmpsb"}[rng.Intn(7)]
				emit("%s", sop)
				if dir == "std" {
					emit("cld")
				}
			case v < 92:
				emit("call sub%d", rng.Intn(2))
			case v < 97:
				emit("pushf")
				emit("popf")
			default:
				// Rare trap instructions end the trial on both arms.
				if rng.Intn(8) == 0 {
					emit("%s", []string{"int3", "into", "hlt", "ud2"}[rng.Intn(4)])
				} else {
					emit("nop")
				}
			}
		}
		// Terminator: conditional into the ring (falling through to the
		// next snippet), or an unconditional jump, half the time to the
		// next snippet so that execution reaches most of the ring.
		switch {
		case rng.Intn(2) == 0 && i < n-1:
			emit("j%s L%d", oracleConds[rng.Intn(len(oracleConds))], rng.Intn(n))
		case rng.Intn(2) == 0:
			emit("jmp L%d", (i+1)%n)
		default:
			emit("jmp L%d", rng.Intn(n))
		}
	}
	return string(b)
}

// compareArms fails the test if the two engines diverged.
func compareArms(t *testing.T, a, b *machine, ra, rb cpu.StopReason, ea, eb *cpu.Exception, tag string) {
	t.Helper()
	if ra != rb {
		t.Fatalf("%s: stop reason: blocks=%v step=%v", tag, ra, rb)
	}
	if (ea == nil) != (eb == nil) {
		t.Fatalf("%s: exception: blocks=%v step=%v", tag, ea, eb)
	}
	if ea != nil && *ea != *eb {
		t.Fatalf("%s: exception: blocks=%+v step=%+v", tag, *ea, *eb)
	}
	sa, sb := a.cpu.CaptureState(), b.cpu.CaptureState()
	if sa != sb {
		t.Fatalf("%s: state diverged:\nblocks: %+v\nstep:   %+v", tag, sa, sb)
	}
}

// compareMemory fails the test if the two arms' memory images differ.
func compareMemory(t *testing.T, a, b *machine, tag string) {
	t.Helper()
	for _, r := range []struct {
		name string
		base uint32
		size uint32
	}{
		{"text", textBase, 0x10000},
		{"data", dataBase, 0x10000},
		{"stack", stackTop - stackSize, stackSize},
	} {
		ba, err := a.mem.ReadRaw(r.base, r.size)
		if err != nil {
			t.Fatalf("%s: read %s (blocks): %v", tag, r.name, err)
		}
		bb, err := b.mem.ReadRaw(r.base, r.size)
		if err != nil {
			t.Fatalf("%s: read %s (step): %v", tag, r.name, err)
		}
		for i := range ba {
			if ba[i] != bb[i] {
				t.Fatalf("%s: %s memory diverged at +%#x: blocks=%#02x step=%#02x",
					tag, r.name, i, ba[i], bb[i])
			}
		}
	}
}

// flipBit is the shared breakpoint hook: disarm and flip a code bit at
// the breakpoint address, exactly what the injection driver does. Both
// arms run the same deterministic hook.
func flipBit(c *cpu.CPU, dr int) {
	addr := c.DR[dr]
	c.ClearBreakpoint(dr)
	old, err := c.Mem.ReadRaw(addr, 1)
	if err != nil {
		return
	}
	c.Mem.WriteRaw(addr, []byte{old[0] ^ 0x04})
}

func TestBlockOracleRandomPrograms(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	for seed := 0; seed < trials; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			oracleTrial(t, int64(seed), 300, false)
		})
	}
}

// TestBlockOracleEdgeFlags is the lockstep oracle on programs made of
// edge templates only: every lazy-flag kind followed by chains of
// conditions, on operands at the boundaries the condition rules split
// on.
func TestBlockOracleEdgeFlags(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	for seed := 0; seed < trials; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			oracleTrial(t, int64(seed), 300, true)
		})
	}
}

// FuzzBlockOracle runs the lockstep comparison of
// TestBlockOracleRandomPrograms on fuzzer-chosen generator seeds and
// per-chunk budget caps. Run it with
//
//	go test -run '^$' -fuzz '^FuzzBlockOracle$' -fuzztime 30s ./internal/cpu/
//
// The corpus under testdata/fuzz/FuzzBlockOracle runs with go test.
func FuzzBlockOracle(f *testing.F) {
	f.Add(int64(0), uint16(300), false)
	f.Fuzz(func(t *testing.T, seed int64, budget uint16, edgesOnly bool) {
		oracleTrial(t, seed, 1+int(budget)%2048, edgesOnly)
	})
}

// oracleTrial runs one random program in both engines in lockstep:
// up to 300 Run calls, each with a random budget of at most maxBudget,
// interleaved with random harness events. It fails t on the first
// divergence.
func oracleTrial(t *testing.T, seed int64, maxBudget int, edgesOnly bool) {
	rng := rand.New(rand.NewSource(0xB10C + seed))
	src := randOracleProgram(rng, edgesOnly)
	a := build(t, src) // blocks on (the default)
	b := build(t, src)
	b.cpu.DisableBlocks = true
	a.cpu.OnBreakpoint = flipBit
	b.cpu.OnBreakpoint = flipBit
	entry := a.prog.Symbols["oracle_entry"]
	a.cpu.EIP, b.cpu.EIP = entry, entry

	textEnd := entry
	for _, s := range a.prog.Sections {
		if s.Base <= entry && entry < s.Base+uint32(len(s.Code)) {
			textEnd = s.Base + uint32(len(s.Code))
		}
	}

	type savepoint struct {
		sa, sb *mem.Snapshot
		ca, cb cpu.State
	}
	var saves []savepoint
	for chunk := 0; chunk < 300; chunk++ {
		tag := fmt.Sprintf("seed %d chunk %d", seed, chunk)
		budget := uint64(1 + rng.Intn(maxBudget))
		ra, ea := a.cpu.Run(budget)
		rb, eb := b.cpu.Run(budget)
		compareArms(t, a, b, ra, rb, ea, eb, tag)
		if ra != cpu.StopBudget {
			break // trap, halt or host return: trial over
		}
		if chunk%32 == 31 {
			compareMemory(t, a, b, tag)
		}
		// Harness events, applied identically to both arms.
		switch ev := rng.Intn(100); {
		case ev < 5:
			// Raw code write (the injector's flip): dirties a code
			// page, bumping the code generation both engines
			// validate against.
			off := textBase + uint32(rng.Intn(int(textEnd-textBase)))
			old, err := a.mem.ReadRaw(off, 1)
			if err != nil {
				t.Fatalf("%s: read text: %v", tag, err)
			}
			fl := []byte{old[0] ^ byte(1<<rng.Intn(8))}
			a.mem.WriteRaw(off, fl)
			b.mem.WriteRaw(off, fl)
		case ev < 12:
			// Breakpoint at the current EIP: fires on the next
			// dispatch in both arms, and its hook self-modifies
			// the code mid-run.
			dr := rng.Intn(4)
			a.cpu.SetBreakpoint(dr, a.cpu.EIP)
			b.cpu.SetBreakpoint(dr, b.cpu.EIP)
		case ev < 19:
			saves = append(saves, savepoint{
				sa: a.mem.TakeSnapshot(), sb: b.mem.TakeSnapshot(),
				ca: a.cpu.CaptureState(), cb: b.cpu.CaptureState(),
			})
		case ev < 26 && len(saves) > 0:
			// Restore a random earlier point (possibly rolling
			// back code writes — the per-page generation path).
			sp := saves[rng.Intn(len(saves))]
			a.mem.Restore(sp.sa)
			b.mem.Restore(sp.sb)
			a.cpu.RestoreState(sp.ca)
			b.cpu.RestoreState(sp.cb)
		}
	}
	compareMemory(t, a, b, fmt.Sprintf("seed %d end", seed))
	if st := a.cpu.BlockStats(); st.Hits+st.Misses == 0 {
		t.Fatalf("seed %d: block engine never dispatched (stats %+v)", seed, st)
	}
}

// TestBlockOracleRandomBytes feeds both engines raw random bytes:
// undecodable opcodes, truncated instructions at the end of the
// mapped text page, wild jumps and accidental faults must classify
// identically in both arms.
func TestBlockOracleRandomBytes(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 40
	}
	// Sprinkle plausible opcode bytes among the noise so some trials
	// decode into longer runs before trapping.
	likely := []byte{
		0x01, 0x03, 0x09, 0x0B, 0x21, 0x23, 0x29, 0x2B, 0x31, 0x33, 0x39, 0x3B,
		0x40, 0x43, 0x48, 0x4B, 0x50, 0x53, 0x58, 0x5B, 0x85, 0x89, 0x8B, 0x90,
		0xB8, 0xBB, 0xC0, 0xC1, 0xC3, 0xE9, 0xEB, 0x74, 0x75, 0xF7, 0xFE, 0xFF,
	}
	for seed := 0; seed < trials; seed++ {
		rng := rand.New(rand.NewSource(0x5EED + int64(seed)))
		code := make([]byte, mem.PageSize)
		rng.Read(code)
		for i := range code {
			if rng.Intn(2) == 0 {
				code[i] = likely[rng.Intn(len(likely))]
			}
		}
		var arms [2]*cpu.CPU
		var mems [2]*mem.Memory
		for i := range arms {
			m := mem.New()
			m.Map(textBase, mem.PageSize, mem.PermRX) // one page: fetches can truncate at its end
			m.Map(dataBase, 0x10000, mem.PermRW)
			m.Map(stackTop-stackSize, stackSize, mem.PermRW)
			if err := m.WriteRaw(textBase, code); err != nil {
				t.Fatal(err)
			}
			c := cpu.New(m)
			mems[i], arms[i] = m, c
		}
		var regs [8]uint32
		for i := range regs {
			regs[i] = uint32(rng.Int63())
		}
		eip := textBase + uint32(rng.Intn(mem.PageSize))
		for i := range arms {
			arms[i].Regs = regs
			arms[i].EIP = eip
		}
		arms[1].DisableBlocks = true

		for chunk := 0; chunk < 50; chunk++ {
			tag := fmt.Sprintf("soup seed %d chunk %d", seed, chunk)
			budget := uint64(1 + rng.Intn(200))
			ra, ea := arms[0].Run(budget)
			rb, eb := arms[1].Run(budget)
			if ra != rb {
				t.Fatalf("%s: stop reason: blocks=%v step=%v", tag, ra, rb)
			}
			if (ea == nil) != (eb == nil) || (ea != nil && *ea != *eb) {
				t.Fatalf("%s: exception: blocks=%v step=%v", tag, ea, eb)
			}
			sa, sb := arms[0].CaptureState(), arms[1].CaptureState()
			if sa != sb {
				t.Fatalf("%s: state diverged:\nblocks: %+v\nstep:   %+v", tag, sa, sb)
			}
			if ra != cpu.StopBudget {
				break
			}
		}
		for _, r := range [][2]uint32{{dataBase, 0x10000}, {stackTop - stackSize, stackSize}} {
			ba, _ := mems[0].ReadRaw(r[0], r[1])
			bb, _ := mems[1].ReadRaw(r[0], r[1])
			for i := range ba {
				if ba[i] != bb[i] {
					t.Fatalf("soup seed %d: memory diverged at %#x", seed, r[0]+uint32(i))
				}
			}
		}
	}
}
