package cpu

// arithFlags are the six status flags the ALU instructions define.
const arithFlags = FlagCF | FlagPF | FlagAF | FlagZF | FlagSF | FlagOF

// parity[i] is FlagPF when byte i has even parity, 0 otherwise.
var parity [256]uint8

func init() {
	for i := range parity {
		n := 0
		for b := i; b != 0; b >>= 1 {
			n += b & 1
		}
		if n%2 == 0 {
			parity[i] = uint8(FlagPF)
		}
	}
}

func (c *CPU) getFlag(f uint32) bool { return c.Eflags&f != 0 }
func (c *CPU) setFlag(f uint32, v bool) {
	if v {
		c.Eflags |= f
	} else {
		c.Eflags &^= f
	}
}

// The flag helpers compute every flag an instruction defines as one
// bit pattern without branching on the result, and store it with a
// single read-modify-write of Eflags. exec and the lazy-flag fold
// (foldFlags) share them.

// szpBits returns SF, ZF and PF for a result of the given width.
func szpBits(res uint32, w8 bool) uint32 {
	sign := uint32(31)
	if w8 {
		res &= 0xFF
		sign = 7
	}
	zf := uint32((uint64(res) - 1) >> 63) // 1 iff res == 0
	return res>>sign<<7 | zf<<6 | uint32(parity[res&0xFF])
}

// addBits returns the arithmetic flags of dst = a + b (+carryIn).
func addBits(a, b, res uint32, w8 bool, carryIn uint32) uint32 {
	width, sign := uint32(32), uint32(31)
	if w8 {
		a, b, res = a&0xFF, b&0xFF, res&0xFF
		width, sign = 8, 7
	}
	cf := uint32((uint64(a) + uint64(b) + uint64(carryIn)) >> width)
	of := (a ^ res) & (b ^ res) >> sign & 1
	return cf | of<<11 | (a^b^res)&FlagAF | szpBits(res, w8)
}

// subBits returns the arithmetic flags of dst = a - b (-borrowIn).
func subBits(a, b, res uint32, w8 bool, borrowIn uint32) uint32 {
	sign := uint32(31)
	if w8 {
		a, b, res = a&0xFF, b&0xFF, res&0xFF
		sign = 7
	}
	cf := uint32((uint64(a) - uint64(b) - uint64(borrowIn)) >> 63)
	of := (a ^ b) & (a ^ res) >> sign & 1
	return cf | of<<11 | (a^b^res)&FlagAF | szpBits(res, w8)
}

// setArith replaces the six arithmetic flags with bits.
func (c *CPU) setArith(bits uint32) { c.Eflags = c.Eflags&^arithFlags | bits }

// szp sets SF, ZF and PF from a result of the given width.
func (c *CPU) szp(res uint32, w8 bool) {
	c.Eflags = c.Eflags&^(FlagSF|FlagZF|FlagPF) | szpBits(res, w8)
}

// flagsLogic sets flags for AND/OR/XOR/TEST: CF=OF=AF=0, SZP from result.
func (c *CPU) flagsLogic(res uint32, w8 bool) { c.setArith(szpBits(res, w8)) }

// flagsAdd sets flags for dst = a + b (+carryIn).
func (c *CPU) flagsAdd(a, b, res uint32, w8 bool, carryIn uint32) {
	c.setArith(addBits(a, b, res, w8, carryIn))
}

// flagsSub sets flags for dst = a - b (-borrowIn).
func (c *CPU) flagsSub(a, b, res uint32, w8 bool, borrowIn uint32) {
	c.setArith(subBits(a, b, res, w8, borrowIn))
}

// condTrue evaluates a condition code against EFLAGS.
func (c *CPU) condTrue(cc uint8) bool { return condHolds(cc, c.Eflags) }

// condHolds evaluates condition code cc against the flags fl.
func condHolds(cc uint8, fl uint32) bool {
	var v bool
	switch cc >> 1 {
	case 0: // O
		v = fl&FlagOF != 0
	case 1: // B
		v = fl&FlagCF != 0
	case 2: // E
		v = fl&FlagZF != 0
	case 3: // BE
		v = fl&(FlagCF|FlagZF) != 0
	case 4: // S
		v = fl&FlagSF != 0
	case 5: // P
		v = fl&FlagPF != 0
	case 6: // L
		v = (fl&FlagSF != 0) != (fl&FlagOF != 0)
	case 7: // LE
		v = fl&FlagZF != 0 || (fl&FlagSF != 0) != (fl&FlagOF != 0)
	}
	return v != (cc&1 != 0)
}

// Lazy flags. A compiled ALU op (compile.go) does not compute the six
// arithmetic flags; it records its kind, operands and result, and a
// following jcc reads its condition straight from that record. The
// record lives only inside the block loop: runBlocks folds it into
// Eflags before every generic op, every single-step fallback and
// before it returns, so everything outside the loop — exec, hooks,
// CaptureState — sees exact flags.

// Lazy-record kinds. lazyNone means Eflags is exact.
const (
	lazyNone  uint8 = iota
	lazyAdd         // add: res = a + b
	lazySub         // sub, cmp: res = a - b
	lazyLogic       // and, or, xor, test: CF = OF = AF = 0
	lazyInc         // inc: res = a + 1, CF kept in cf
	lazyDec         // dec: res = a - 1, CF kept in cf
)

// lazyFlags is the deferred form of the arithmetic flags: the last
// flag-setting compiled op's operands and result (32-bit only).
type lazyFlags struct {
	op        uint8
	a, b, res uint32
	cf        uint32 // lazyInc, lazyDec: the CF the instruction preserved (FlagCF or 0)
}

// foldFlags writes the lazy record, if any, into Eflags.
func (c *CPU) foldFlags() {
	f := &c.lazy
	var bits uint32
	switch f.op {
	case lazyNone:
		return
	case lazyAdd:
		bits = addBits(f.a, f.b, f.res, false, 0)
	case lazySub:
		bits = subBits(f.a, f.b, f.res, false, 0)
	case lazyLogic:
		bits = szpBits(f.res, false)
	case lazyInc:
		bits = addBits(f.a, 1, f.res, false, 0)&^FlagCF | f.cf
	case lazyDec:
		bits = subBits(f.a, 1, f.res, false, 0)&^FlagCF | f.cf
	}
	c.setArith(bits)
	f.op = lazyNone
}

// carry returns the current CF (FlagCF or 0), lazy or not.
func (c *CPU) carry() uint32 {
	f := &c.lazy
	switch f.op {
	case lazyAdd:
		if f.res < f.a {
			return FlagCF
		}
		return 0
	case lazySub:
		if f.a < f.b {
			return FlagCF
		}
		return 0
	case lazyLogic:
		return 0
	case lazyInc, lazyDec:
		return f.cf
	}
	return c.Eflags & FlagCF
}

// cond evaluates condition code cc, reading the lazy record directly
// where the condition has a rule for its kind and folding it first
// where it has none (always O and P).
func (c *CPU) cond(cc uint8) bool {
	f := &c.lazy
	var v bool
	switch f.op {
	case lazyNone:
		return c.condTrue(cc)
	case lazySub:
		a, b := f.a, f.b
		switch cc >> 1 {
		case 1: // B
			v = a < b
		case 2: // E
			v = a == b
		case 3: // BE
			v = a <= b
		case 4: // S
			v = int32(f.res) < 0
		case 6: // L
			v = int32(a) < int32(b)
		case 7: // LE
			v = int32(a) <= int32(b)
		default:
			c.foldFlags()
			return c.condTrue(cc)
		}
	case lazyLogic:
		r := int32(f.res)
		switch cc >> 1 {
		case 1: // B
			v = false
		case 2, 3: // E, BE
			v = r == 0
		case 4, 6: // S, L
			v = r < 0
		case 7: // LE
			v = r <= 0
		default:
			c.foldFlags()
			return c.condTrue(cc)
		}
	default: // lazyAdd, lazyInc, lazyDec
		switch cc >> 1 {
		case 1: // B
			v = c.carry() != 0
		case 2: // E
			v = f.res == 0
		case 3: // BE
			v = c.carry() != 0 || f.res == 0
		case 4: // S
			v = int32(f.res) < 0
		default:
			c.foldFlags()
			return c.condTrue(cc)
		}
	}
	return v != (cc&1 != 0)
}
