package cpu_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/ia32"
	"repro/internal/mem"
)

const (
	textBase  = 0x00100000
	dataBase  = 0x00300000
	stackTop  = 0x00280000
	stackSize = 0x10000
)

type machine struct {
	cpu  *cpu.CPU
	mem  *mem.Memory
	prog *asm.Program
}

// build assembles src into a little machine: RX text, RW data, a stack.
func build(t testing.TB, src string) *machine {
	t.Helper()
	a := asm.New(nil)
	if err := a.AddSource("test.s", src); err != nil {
		t.Fatalf("assemble: %v", err)
	}
	prog, err := a.Link(map[string]uint32{"text": textBase, "data": dataBase}, []string{"text"})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	m := mem.New()
	m.Map(textBase, 0x10000, mem.PermRX)
	m.Map(dataBase, 0x10000, mem.PermRW)
	m.Map(stackTop-stackSize, stackSize, mem.PermRW)
	for _, s := range prog.Sections {
		if err := m.WriteRaw(s.Base, s.Code); err != nil {
			t.Fatalf("load section %s: %v", s.Name, err)
		}
	}
	c := cpu.New(m)
	c.Regs[ia32.ESP] = stackTop
	return &machine{cpu: c, mem: m, prog: prog}
}

// call invokes fn with cdecl args and runs until return or stop.
func (m *machine) call(t testing.TB, fn string, budget uint64, args ...uint32) (cpu.StopReason, *cpu.Exception) {
	t.Helper()
	f, ok := m.prog.FuncByName(fn)
	if !ok {
		t.Fatalf("no function %q", fn)
	}
	for i := len(args) - 1; i >= 0; i-- {
		m.cpu.Regs[ia32.ESP] -= 4
		if err := m.mem.Write32(m.cpu.Regs[ia32.ESP], args[i]); err != nil {
			t.Fatal(err)
		}
	}
	m.cpu.Regs[ia32.ESP] -= 4
	if err := m.mem.Write32(m.cpu.Regs[ia32.ESP], cpu.HostReturn); err != nil {
		t.Fatal(err)
	}
	m.cpu.EIP = f.Addr
	return m.cpu.Run(budget)
}

func mustReturn(t *testing.T, m *machine, fn string, args ...uint32) uint32 {
	t.Helper()
	reason, exc := m.call(t, fn, 1_000_000, args...)
	if reason != cpu.StopReturned {
		t.Fatalf("%s: stop = %v, exc = %v", fn, reason, exc)
	}
	return m.cpu.Regs[ia32.EAX]
}

func TestArithmeticLoop(t *testing.T) {
	m := build(t, `
sum_to_n:
	push ebp
	mov ebp, esp
	mov ecx, [ebp+8]
	xor eax, eax
.Lloop:
	test ecx, ecx
	jz .Ldone
	add eax, ecx
	dec ecx
	jmp .Lloop
.Ldone:
	pop ebp
	ret
`)
	if got := mustReturn(t, m, "sum_to_n", 10); got != 55 {
		t.Fatalf("sum_to_n(10) = %d, want 55", got)
	}
	if got := mustReturn(t, m, "sum_to_n", 0); got != 0 {
		t.Fatalf("sum_to_n(0) = %d, want 0", got)
	}
	if got := mustReturn(t, m, "sum_to_n", 100); got != 5050 {
		t.Fatalf("sum_to_n(100) = %d, want 5050", got)
	}
}

func TestCallChainAndStack(t *testing.T) {
	m := build(t, `
double_it:
	mov eax, [esp+4]
	add eax, eax
	ret

quad:
	push ebp
	mov ebp, esp
	push dword [ebp+8]
	call double_it
	add esp, 4
	push eax
	call double_it
	add esp, 4
	pop ebp
	ret
`)
	if got := mustReturn(t, m, "quad", 21); got != 84 {
		t.Fatalf("quad(21) = %d, want 84", got)
	}
}

func TestSignedUnsignedConditions(t *testing.T) {
	m := build(t, `
; returns 1 if signed a < b else 0
slt:
	mov eax, [esp+4]
	cmp eax, [esp+8]
	setl al
	movzx eax, al
	ret
; returns 1 if unsigned a < b else 0
ult:
	mov eax, [esp+4]
	cmp eax, [esp+8]
	setb al
	movzx eax, al
	ret
`)
	tests := []struct {
		fn   string
		a, b uint32
		want uint32
	}{
		{"slt", 1, 2, 1},
		{"slt", 2, 1, 0},
		{"slt", 0xFFFFFFFF, 0, 1}, // -1 < 0 signed
		{"ult", 0xFFFFFFFF, 0, 0}, // huge > 0 unsigned
		{"ult", 0, 1, 1},
		{"slt", 0x80000000, 0x7FFFFFFF, 1}, // INT_MIN < INT_MAX
	}
	for _, tt := range tests {
		if got := mustReturn(t, m, tt.fn, tt.a, tt.b); got != tt.want {
			t.Errorf("%s(%#x,%#x) = %d, want %d", tt.fn, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMulDivShift(t *testing.T) {
	m := build(t, `
muldiv: ; (a*b)/c
	mov eax, [esp+4]
	mul dword [esp+8]
	div dword [esp+12]
	ret
shifts: ; (a << 4) >> 2 | a >> 31 (arithmetic)
	mov eax, [esp+4]
	mov ecx, eax
	shl eax, 4
	shr eax, 2
	sar ecx, 31
	or eax, ecx
	ret
pagecalc: ; i_size >> PAGE_SHIFT via shrd, as in do_generic_file_read
	mov eax, [esp+4]
	mov edx, [esp+8]
	shrd eax, edx, 12
	ret
`)
	if got := mustReturn(t, m, "muldiv", 7, 6, 2); got != 21 {
		t.Fatalf("muldiv = %d, want 21", got)
	}
	if got := mustReturn(t, m, "shifts", 0x10); got != 0x40 {
		t.Fatalf("shifts = %#x, want 0x40", got)
	}
	if got := mustReturn(t, m, "shifts", 0x80000000); got != 0x20000000|0xFFFFFFFF {
		t.Fatalf("shifts neg = %#x", got)
	}
	// 64-bit size 0xb728 (as in the paper's Figure 5) >> 12 = 0xb.
	if got := mustReturn(t, m, "pagecalc", 0xb728, 0); got != 0xb {
		t.Fatalf("pagecalc = %#x, want 0xb", got)
	}
	// High half participates.
	if got := mustReturn(t, m, "pagecalc", 0, 1); got != 1<<20 {
		t.Fatalf("pagecalc high = %#x, want %#x", got, 1<<20)
	}
}

func TestRepMovsAndStos(t *testing.T) {
	m := build(t, `
.section data
srcbuf: .asciz "hello, kernel world!"
dstbuf: .skip 64

.section text
copy20:
	push esi
	push edi
	mov esi, srcbuf
	mov edi, dstbuf
	mov ecx, 5
	rep movsd
	pop edi
	pop esi
	ret
fill8:
	push edi
	mov edi, dstbuf+32
	mov eax, 0x41414141
	mov ecx, 2
	rep stosd
	pop edi
	ret
`)
	mustReturn(t, m, "copy20")
	dst := m.prog.Symbols["dstbuf"]
	got, err := m.mem.ReadBytes(dst, 20)
	if err != nil || string(got) != "hello, kernel world!" {
		t.Fatalf("copied = %q, %v", got, err)
	}
	mustReturn(t, m, "fill8")
	got, _ = m.mem.ReadBytes(dst+32, 8)
	if string(got) != "AAAAAAAA" {
		t.Fatalf("filled = %q", got)
	}
}

func TestNullPointerFault(t *testing.T) {
	m := build(t, `
deref_null:
	xor edx, edx
	movzx eax, byte [edx+0x1b]
	ret
`)
	reason, exc := m.call(t, "deref_null", 1000)
	if reason != cpu.StopException || exc == nil {
		t.Fatalf("stop = %v, want exception", reason)
	}
	if exc.Vector != cpu.VecPF || exc.Addr != 0x1b {
		t.Fatalf("exc = %+v, want #PF at 0x1b", exc)
	}
}

func TestPagingRequestFault(t *testing.T) {
	m := build(t, `
wild_access:
	mov eax, 0xffffffce
	mov eax, [eax]
	ret
`)
	_, exc := m.call(t, "wild_access", 1000)
	if exc == nil || exc.Vector != cpu.VecPF || exc.Addr != 0xffffffce {
		t.Fatalf("exc = %+v, want #PF at 0xffffffce", exc)
	}
}

func TestDivideError(t *testing.T) {
	m := build(t, `
div_zero:
	mov eax, 100
	xor edx, edx
	xor ecx, ecx
	div ecx
	ret
`)
	_, exc := m.call(t, "div_zero", 1000)
	if exc == nil || exc.Vector != cpu.VecDE {
		t.Fatalf("exc = %+v, want #DE", exc)
	}
}

func TestUD2AssertionTrap(t *testing.T) {
	m := build(t, `
bug_check: ; if (arg == 0) BUG();
	mov eax, [esp+4]
	test eax, eax
	jne .Lok
	ud2
.Lok:
	ret
`)
	if got := mustReturn(t, m, "bug_check", 5); got != 5 {
		t.Fatalf("bug_check(5) = %d", got)
	}
	_, exc := m.call(t, "bug_check", 1000, 0)
	if exc == nil || exc.Vector != cpu.VecUD {
		t.Fatalf("exc = %+v, want #UD", exc)
	}
}

func TestLretGeneralProtection(t *testing.T) {
	m := build(t, `
bad_lret:
	push 0x2b ; garbage selector
	push 0x1000
	lret
`)
	_, exc := m.call(t, "bad_lret", 1000)
	if exc == nil || exc.Vector != cpu.VecGP {
		t.Fatalf("exc = %+v, want #GP", exc)
	}
}

func TestIntNGeneralProtection(t *testing.T) {
	m := build(t, `
bad_int:
	int 0x99
`)
	_, exc := m.call(t, "bad_int", 1000)
	if exc == nil || exc.Vector != cpu.VecGP {
		t.Fatalf("exc = %+v, want #GP", exc)
	}
}

func TestInt3Breakpoint(t *testing.T) {
	m := build(t, `
trap3:
	int3
	ret
`)
	_, exc := m.call(t, "trap3", 1000)
	if exc == nil || exc.Vector != cpu.VecBP {
		t.Fatalf("exc = %+v, want #BP", exc)
	}
}

func TestBoundsTrap(t *testing.T) {
	m := build(t, `
.section data
range: .long 0, 10
.section text
check_bounds:
	mov eax, [esp+4]
	bound eax, [range]
	mov eax, 1
	ret
`)
	if got := mustReturn(t, m, "check_bounds", 5); got != 1 {
		t.Fatalf("in-range = %d", got)
	}
	_, exc := m.call(t, "check_bounds", 1000, 99)
	if exc == nil || exc.Vector != cpu.VecBR {
		t.Fatalf("exc = %+v, want #BR", exc)
	}
}

func TestHalt(t *testing.T) {
	m := build(t, `
stop_cold:
	hlt
	ret
`)
	reason, _ := m.call(t, "stop_cold", 1000)
	if reason != cpu.StopHalted {
		t.Fatalf("stop = %v, want halted", reason)
	}
}

func TestWatchdogBudget(t *testing.T) {
	m := build(t, `
spin_forever:
	jmp spin_forever
`)
	reason, _ := m.call(t, "spin_forever", 5000)
	if reason != cpu.StopBudget {
		t.Fatalf("stop = %v, want budget", reason)
	}
}

func TestRepInterruptibleByBudget(t *testing.T) {
	m := build(t, `
big_fill:
	mov edi, [esp+4]
	mov ecx, [esp+8]
	xor eax, eax
	rep stosb
	mov eax, 1
	ret
`)
	// Huge count: budget exhausts mid-rep, ECX has made progress.
	reason, _ := m.call(t, "big_fill", 3000, dataBase, 0x0FFFFFFF)
	if reason != cpu.StopBudget {
		t.Fatalf("stop = %v, want budget", reason)
	}
	if m.cpu.Regs[ia32.ECX] == 0x0FFFFFFF {
		t.Fatal("rep made no progress before budget stop")
	}
	// Resuming finishes a small remaining count.
	m.cpu.Regs[ia32.ECX] = 10
	reason, exc := m.cpu.Run(100_000)
	if reason != cpu.StopReturned {
		t.Fatalf("resumed stop = %v exc=%v", reason, exc)
	}
}

func TestPageFaultRestartable(t *testing.T) {
	m := build(t, `
poke:
	mov eax, [esp+4]
	mov dword [eax], 0x1234
	mov eax, 1
	ret
`)
	target := uint32(0x00500000) // unmapped
	reason, exc := m.call(t, "poke", 1000, target)
	if reason != cpu.StopException || exc.Vector != cpu.VecPF || exc.Addr != target || !exc.Write {
		t.Fatalf("exc = %+v", exc)
	}
	// "Handle" the fault like do_page_fault would, then resume: the
	// faulting instruction restarts and succeeds.
	m.mem.Map(target, 0x1000, mem.PermRW)
	reason, exc = m.cpu.Run(1000)
	if reason != cpu.StopReturned {
		t.Fatalf("resume stop = %v exc = %v", reason, exc)
	}
	v, _ := m.mem.Read32(target)
	if v != 0x1234 {
		t.Fatalf("written = %#x", v)
	}
}

func TestDebugRegisterInjection(t *testing.T) {
	// The core injection mechanism: break at a branch, flip its
	// condition bit, observe the control-flow change.
	m := build(t, `
classify:
	mov eax, [esp+4]
	test eax, eax
	jz .Lzero
	mov eax, 1
	ret
.Lzero:
	mov eax, 2
	ret
`)
	if got := mustReturn(t, m, "classify", 7); got != 1 {
		t.Fatalf("classify(7) = %d", got)
	}
	if got := mustReturn(t, m, "classify", 0); got != 2 {
		t.Fatalf("classify(0) = %d", got)
	}

	// Find the jz: third instruction. Scan text for 0x74 opcode.
	f, _ := m.prog.FuncByName("classify")
	code, _ := m.mem.ReadRaw(f.Addr, f.Size)
	jzOff := -1
	for off := 0; off < len(code); {
		in, err := ia32.Decode(code[off:])
		if err != nil {
			break
		}
		if in.Op == ia32.OpJcc {
			jzOff = off
			break
		}
		off += int(in.Len)
	}
	if jzOff < 0 {
		t.Fatal("no jcc found in classify")
	}

	injected := false
	m.cpu.OnBreakpoint = func(c *cpu.CPU, dr int) {
		b, _ := m.mem.ReadRaw(f.Addr+uint32(jzOff), 1)
		_ = m.mem.WriteRaw(f.Addr+uint32(jzOff), []byte{b[0] ^ 0x01}) // jz -> jnz
		c.ClearBreakpoint(dr)
		injected = true
	}
	m.cpu.SetBreakpoint(0, f.Addr+uint32(jzOff))

	// With the condition reversed, classify(7) now takes the zero path.
	if got := mustReturn(t, m, "classify", 7); got != 2 {
		t.Fatalf("corrupted classify(7) = %d, want 2", got)
	}
	if !injected {
		t.Fatal("breakpoint hook never fired")
	}
}

func TestCyclesAdvance(t *testing.T) {
	m := build(t, `
tiny:
	mov eax, 1
	ret
`)
	before := m.cpu.Cycles
	mustReturn(t, m, "tiny")
	if m.cpu.Cycles <= before {
		t.Fatal("cycle counter did not advance")
	}
}

func TestStackExceptionOnWrap(t *testing.T) {
	m := build(t, `
wrap_stack:
	xor esp, esp
	push eax
	ret
`)
	_, exc := m.call(t, "wrap_stack", 1000)
	if exc == nil || exc.Vector != cpu.VecSS {
		t.Fatalf("exc = %+v, want #SS", exc)
	}
}

func TestPushaPopa(t *testing.T) {
	m := build(t, `
roundtrip:
	mov eax, 0x11
	mov ebx, 0x22
	mov ecx, 0x33
	pusha
	mov eax, 0
	mov ebx, 0
	mov ecx, 0
	popa
	add eax, ebx
	add eax, ecx
	ret
`)
	if got := mustReturn(t, m, "roundtrip"); got != 0x66 {
		t.Fatalf("pusha/popa roundtrip = %#x, want 0x66", got)
	}
}

func TestStringCompare(t *testing.T) {
	m := build(t, `
.section data
s1: .asciz "vmlinux"
s2: .asciz "vmlinuz"
.section text
; strncmp-ish: compares 7 bytes of s1/s2, returns 0 if equal, 1 if not
cmp7:
	push esi
	push edi
	mov esi, s1
	mov edi, s2
	mov ecx, 7
	repe cmpsb
	setne al
	movzx eax, al
	pop edi
	pop esi
	ret
`)
	if got := mustReturn(t, m, "cmp7"); got != 1 {
		t.Fatalf("cmp7 = %d, want 1 (differs at last byte)", got)
	}
}

func TestExecuteNonExecPage(t *testing.T) {
	m := build(t, `
jump_to_data:
	mov eax, 0x00300000
	jmp eax
`)
	_, exc := m.call(t, "jump_to_data", 1000)
	if exc == nil || exc.Vector != cpu.VecPF || exc.Addr != dataBase {
		t.Fatalf("exc = %+v, want #PF at data page", exc)
	}
}

// TestFlagCombosWhere: a jcc started under Coverage records the
// combination of its five arithmetic flags whatever the other EFLAGS
// bits are, and Where(cc) holds that combination exactly when the jcc
// is taken.
func TestFlagCombosWhere(t *testing.T) {
	m := mem.New()
	m.Map(textBase, 0x1000, mem.PermRX)
	c := cpu.New(m)
	arith := []uint32{cpu.FlagCF, cpu.FlagPF, cpu.FlagZF, cpu.FlagSF, cpu.FlagOF}
	for cc := ia32.Cond(0); cc < 16; cc++ {
		if err := m.WriteRaw(textBase, []byte{0x70 + byte(cc), 0x10}); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 32; k++ {
			fl := cpu.FlagIF | cpu.FlagAF | cpu.FlagDF // bits no condition reads
			for i, f := range arith {
				if k&(1<<i) != 0 {
					fl |= f
				}
			}
			cov := cpu.NewCoverage(textBase, 0x1000)
			c.Coverage, c.EIP, c.Eflags = cov, textBase, fl
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
			taken := c.EIP == textBase+2+0x10
			set := cov.Branch(textBase)
			if set != 1<<k {
				t.Fatalf("j%s under flags %#x recorded %#x, want combination %d", cc, fl, set, k)
			}
			if got := set.Where(cc) != 0; got != taken {
				t.Fatalf("j%s under flags %#x: Where says taken=%v, the CPU took it=%v", cc, fl, got, taken)
			}
		}
	}
}
