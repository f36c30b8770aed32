package cpu

import (
	"repro/internal/ia32"
	"repro/internal/mem"
)

// KernelCS is the only code-segment selector considered valid by far
// returns; anything else raises #GP (mirrors protected-mode selector
// checks, the dominant source of general protection faults under random
// corruption).
const KernelCS = 0x10

// maxRepChunk bounds the iterations a REP-prefixed instruction executes
// per Step; like real hardware, REP is interruptible and restartable, so
// a corrupted huge ECX cannot wedge the run loop (the watchdog budget
// still drains).
const maxRepChunk = 4096

// srcVal evaluates the source operand (immediate or Args[1]).
func (c *CPU) srcVal(i *ia32.Inst) (uint32, error) {
	if i.HasImm {
		return uint32(i.Imm), nil
	}
	return c.readArg(i.Args[1], i.W8)
}

func (c *CPU) exec(i *ia32.Inst) error {
	c.Cycles++
	next := c.EIP + uint32(i.Len)

	switch i.Op {
	case ia32.OpNop, ia32.OpLahf, ia32.OpSahf:
		if i.Op == ia32.OpLahf {
			c.setReg8(ia32.ESP, uint8(c.Eflags)|0x02) // AH encoding is 4 (ESP slot)
		} else if i.Op == ia32.OpSahf {
			ah := uint32(c.reg8(ia32.ESP))
			keep := c.Eflags &^ (FlagCF | FlagPF | FlagAF | FlagZF | FlagSF)
			c.Eflags = keep | (ah & (FlagCF | FlagPF | FlagAF | FlagZF | FlagSF))
		}

	case ia32.OpMov:
		v, err := c.srcVal(i)
		if err != nil {
			return err
		}
		if err := c.writeArg(i.Args[0], i.W8, v); err != nil {
			return err
		}

	case ia32.OpLea:
		c.Regs[i.Args[0].Reg] = c.ea(i.Args[1].Mem)

	case ia32.OpXchg:
		a, err := c.readArg(i.Args[0], i.W8)
		if err != nil {
			return err
		}
		b, err := c.readArg(i.Args[1], i.W8)
		if err != nil {
			return err
		}
		if err := c.writeArg(i.Args[0], i.W8, b); err != nil {
			return err
		}
		if err := c.writeArg(i.Args[1], i.W8, a); err != nil {
			return err
		}

	case ia32.OpAdd, ia32.OpAdc:
		dst, err := c.readArg(i.Args[0], i.W8)
		if err != nil {
			return err
		}
		src, err := c.srcVal(i)
		if err != nil {
			return err
		}
		var carry uint32
		if i.Op == ia32.OpAdc && c.getFlag(FlagCF) {
			carry = 1
		}
		res := dst + src + carry
		c.flagsAdd(dst, src, res, i.W8, carry)
		if err := c.writeArg(i.Args[0], i.W8, res); err != nil {
			return err
		}

	case ia32.OpSub, ia32.OpSbb:
		dst, err := c.readArg(i.Args[0], i.W8)
		if err != nil {
			return err
		}
		src, err := c.srcVal(i)
		if err != nil {
			return err
		}
		var borrow uint32
		if i.Op == ia32.OpSbb && c.getFlag(FlagCF) {
			borrow = 1
		}
		res := dst - src - borrow
		c.flagsSub(dst, src, res, i.W8, borrow)
		if err := c.writeArg(i.Args[0], i.W8, res); err != nil {
			return err
		}

	case ia32.OpCmp:
		dst, err := c.readArg(i.Args[0], i.W8)
		if err != nil {
			return err
		}
		src, err := c.srcVal(i)
		if err != nil {
			return err
		}
		c.flagsSub(dst, src, dst-src, i.W8, 0)

	case ia32.OpAnd, ia32.OpOr, ia32.OpXor:
		dst, err := c.readArg(i.Args[0], i.W8)
		if err != nil {
			return err
		}
		src, err := c.srcVal(i)
		if err != nil {
			return err
		}
		var res uint32
		switch i.Op {
		case ia32.OpAnd:
			res = dst & src
		case ia32.OpOr:
			res = dst | src
		default:
			res = dst ^ src
		}
		c.flagsLogic(res, i.W8)
		if err := c.writeArg(i.Args[0], i.W8, res); err != nil {
			return err
		}

	case ia32.OpTest:
		dst, err := c.readArg(i.Args[0], i.W8)
		if err != nil {
			return err
		}
		src, err := c.srcVal(i)
		if err != nil {
			return err
		}
		c.flagsLogic(dst&src, i.W8)

	case ia32.OpInc, ia32.OpDec:
		dst, err := c.readArg(i.Args[0], i.W8)
		if err != nil {
			return err
		}
		var res, bits uint32
		if i.Op == ia32.OpInc {
			res = dst + 1
			bits = addBits(dst, 1, res, i.W8, 0)
		} else {
			res = dst - 1
			bits = subBits(dst, 1, res, i.W8, 0)
		}
		c.setArith(bits&^FlagCF | c.Eflags&FlagCF) // INC/DEC preserve CF
		if err := c.writeArg(i.Args[0], i.W8, res); err != nil {
			return err
		}

	case ia32.OpNot:
		dst, err := c.readArg(i.Args[0], i.W8)
		if err != nil {
			return err
		}
		if err := c.writeArg(i.Args[0], i.W8, ^dst); err != nil {
			return err
		}

	case ia32.OpNeg:
		dst, err := c.readArg(i.Args[0], i.W8)
		if err != nil {
			return err
		}
		res := -dst
		c.flagsSub(0, dst, res, i.W8, 0)
		if err := c.writeArg(i.Args[0], i.W8, res); err != nil {
			return err
		}

	case ia32.OpMul, ia32.OpImul1:
		src, err := c.readArg(i.Args[0], i.W8)
		if err != nil {
			return err
		}
		c.Cycles += 3
		if i.W8 {
			var prod uint32
			if i.Op == ia32.OpMul {
				prod = uint32(uint8(c.Regs[ia32.EAX])) * (src & 0xFF)
			} else {
				prod = uint32(int32(int8(c.Regs[ia32.EAX])) * int32(int8(src)))
			}
			c.Regs[ia32.EAX] = c.Regs[ia32.EAX]&^uint32(0xFFFF) | prod&0xFFFF
			over := prod>>8 != 0
			c.setFlag(FlagCF, over)
			c.setFlag(FlagOF, over)
		} else {
			var lo, hi uint32
			if i.Op == ia32.OpMul {
				p := uint64(c.Regs[ia32.EAX]) * uint64(src)
				lo, hi = uint32(p), uint32(p>>32)
				c.setFlag(FlagCF, hi != 0)
				c.setFlag(FlagOF, hi != 0)
			} else {
				p := int64(int32(c.Regs[ia32.EAX])) * int64(int32(src))
				lo, hi = uint32(p), uint32(uint64(p)>>32)
				over := int64(int32(lo)) != p
				c.setFlag(FlagCF, over)
				c.setFlag(FlagOF, over)
			}
			c.Regs[ia32.EAX] = lo
			c.Regs[ia32.EDX] = hi
		}

	case ia32.OpImul2, ia32.OpImul3:
		var a, b uint32
		var err error
		if i.Op == ia32.OpImul2 {
			a = c.Regs[i.Args[0].Reg]
			b, err = c.readArg(i.Args[1], false)
		} else {
			a = uint32(i.Imm)
			b, err = c.readArg(i.Args[1], false)
		}
		if err != nil {
			return err
		}
		c.Cycles += 3
		p := int64(int32(a)) * int64(int32(b))
		res := uint32(p)
		over := int64(int32(res)) != p
		c.setFlag(FlagCF, over)
		c.setFlag(FlagOF, over)
		c.Regs[i.Args[0].Reg] = res

	case ia32.OpDiv, ia32.OpIdiv:
		src, err := c.readArg(i.Args[0], i.W8)
		if err != nil {
			return err
		}
		c.Cycles += 10
		if err := c.divide(i.Op == ia32.OpIdiv, i.W8, src); err != nil {
			return err
		}

	case ia32.OpRol, ia32.OpRor, ia32.OpRcl, ia32.OpRcr,
		ia32.OpShl, ia32.OpShr, ia32.OpSar:
		if err := c.shift(i); err != nil {
			return err
		}

	case ia32.OpShld, ia32.OpShrd:
		if err := c.doubleShift(i); err != nil {
			return err
		}

	case ia32.OpPush:
		var v uint32
		if i.HasImm {
			v = uint32(i.Imm)
		} else {
			var err error
			v, err = c.readArg(i.Args[0], false)
			if err != nil {
				return err
			}
		}
		if err := c.push(v); err != nil {
			return err
		}

	case ia32.OpPop:
		v, err := c.pop()
		if err != nil {
			return err
		}
		if err := c.writeArg(i.Args[0], false, v); err != nil {
			c.Regs[ia32.ESP] -= 4 // undo for restartability
			return err
		}

	case ia32.OpPusha:
		sp := c.Regs[ia32.ESP]
		vals := [8]uint32{
			c.Regs[ia32.EAX], c.Regs[ia32.ECX], c.Regs[ia32.EDX], c.Regs[ia32.EBX],
			sp, c.Regs[ia32.EBP], c.Regs[ia32.ESI], c.Regs[ia32.EDI],
		}
		for k, v := range vals {
			a := sp - 4 - uint32(k)*4
			c.Cycles++
			if err := c.Mem.Write32(a, v); err != nil {
				return c.pageFault(err, a)
			}
		}
		c.Regs[ia32.ESP] = sp - 32

	case ia32.OpPopa:
		sp := c.Regs[ia32.ESP]
		var vals [8]uint32
		for k := range vals {
			a := sp + uint32(k)*4
			c.Cycles++
			v, err := c.Mem.Read32(a)
			if err != nil {
				return c.pageFault(err, a)
			}
			vals[k] = v
		}
		c.Regs[ia32.EDI] = vals[0]
		c.Regs[ia32.ESI] = vals[1]
		c.Regs[ia32.EBP] = vals[2]
		c.Regs[ia32.EBX] = vals[4]
		c.Regs[ia32.EDX] = vals[5]
		c.Regs[ia32.ECX] = vals[6]
		c.Regs[ia32.EAX] = vals[7]
		c.Regs[ia32.ESP] = sp + 32

	case ia32.OpPushf:
		if err := c.push(c.Eflags | 0x02); err != nil {
			return err
		}

	case ia32.OpPopf:
		v, err := c.pop()
		if err != nil {
			return err
		}
		const writable = FlagCF | FlagPF | FlagAF | FlagZF | FlagSF |
			FlagTF | FlagIF | FlagDF | FlagOF
		c.Eflags = (c.Eflags &^ writable) | (v & writable) | 0x02

	case ia32.OpJcc:
		if c.condTrue(uint8(i.Cond)) {
			next = i.BranchTarget(c.EIP)
		}

	case ia32.OpJmp:
		if i.Args[0].Kind != ia32.KindNone {
			t, err := c.readArg(i.Args[0], false)
			if err != nil {
				return err
			}
			next = t
		} else {
			next = i.BranchTarget(c.EIP)
		}

	case ia32.OpCall:
		var target uint32
		if i.Args[0].Kind != ia32.KindNone {
			t, err := c.readArg(i.Args[0], false)
			if err != nil {
				return err
			}
			target = t
		} else {
			target = i.BranchTarget(c.EIP)
		}
		if err := c.push(next); err != nil {
			return err
		}
		next = target

	case ia32.OpRet:
		v, err := c.pop()
		if err != nil {
			return err
		}
		if i.HasImm {
			c.Regs[ia32.ESP] += uint32(i.Imm)
		}
		next = v

	case ia32.OpLret:
		eip, err := c.pop()
		if err != nil {
			return err
		}
		cs, err := c.pop()
		if err != nil {
			c.Regs[ia32.ESP] -= 4
			return err
		}
		if cs&0xFFFF != KernelCS {
			c.Regs[ia32.ESP] -= 8 // leave state inspectable
			return &Exception{Vector: VecGP, EIP: c.EIP, Addr: cs & 0xFFFF}
		}
		if i.HasImm {
			c.Regs[ia32.ESP] += uint32(i.Imm)
		}
		next = eip

	case ia32.OpLeave:
		c.Regs[ia32.ESP] = c.Regs[ia32.EBP]
		v, err := c.pop()
		if err != nil {
			return err
		}
		c.Regs[ia32.EBP] = v

	case ia32.OpInt3:
		return &Exception{Vector: VecBP, EIP: c.EIP}

	case ia32.OpInto:
		if c.getFlag(FlagOF) {
			return &Exception{Vector: VecOF, EIP: c.EIP}
		}

	case ia32.OpInt:
		// Software interrupts without a matching gate raise #GP, except
		// vector 10 which maps to the invalid-TSS trap (task gates are
		// system descriptors in our model).
		v := int(uint32(i.Imm) & 0xFF)
		if v == VecTS {
			return &Exception{Vector: VecTS, EIP: c.EIP}
		}
		return &Exception{Vector: VecGP, EIP: c.EIP, Addr: uint32(v)}

	case ia32.OpBound:
		idx := int32(c.Regs[i.Args[0].Reg])
		base := c.ea(i.Args[1].Mem)
		c.Cycles += 2
		lo, err := c.Mem.Read32(base)
		if err != nil {
			return c.pageFault(err, base)
		}
		hi, err := c.Mem.Read32(base + 4)
		if err != nil {
			return c.pageFault(err, base+4)
		}
		if idx < int32(lo) || idx > int32(hi) {
			return &Exception{Vector: VecBR, EIP: c.EIP}
		}

	case ia32.OpHlt:
		return ErrHalted

	case ia32.OpCwde:
		c.Regs[ia32.EAX] = uint32(int32(int16(c.Regs[ia32.EAX])))

	case ia32.OpCdq:
		if c.Regs[ia32.EAX]&0x80000000 != 0 {
			c.Regs[ia32.EDX] = 0xFFFFFFFF
		} else {
			c.Regs[ia32.EDX] = 0
		}

	case ia32.OpSetcc:
		var v uint32
		if c.condTrue(uint8(i.Cond)) {
			v = 1
		}
		if err := c.writeArg(i.Args[0], true, v); err != nil {
			return err
		}

	case ia32.OpMovzx8, ia32.OpMovsx8:
		v, err := c.readArg(i.Args[1], true)
		if err != nil {
			return err
		}
		if i.Op == ia32.OpMovsx8 {
			v = uint32(int32(int8(v)))
		}
		c.Regs[i.Args[0].Reg] = v

	case ia32.OpMovzx16, ia32.OpMovsx16:
		v, err := c.read16(i.Args[1])
		if err != nil {
			return err
		}
		if i.Op == ia32.OpMovsx16 {
			v = uint32(int32(int16(v)))
		}
		c.Regs[i.Args[0].Reg] = v

	case ia32.OpIn:
		port := c.portOf(i)
		var v uint32 = 0xFFFFFFFF
		if c.OnIn != nil {
			v = c.OnIn(port, i.W8)
		}
		if i.W8 {
			c.setReg8(ia32.EAX, uint8(v))
		} else {
			c.Regs[ia32.EAX] = v
		}

	case ia32.OpOut:
		port := c.portOf(i)
		var v uint32
		if i.W8 {
			v = uint32(c.reg8(ia32.EAX))
		} else {
			v = c.Regs[ia32.EAX]
		}
		if c.OnOut != nil {
			c.OnOut(port, i.W8, v)
		}

	case ia32.OpClc:
		c.setFlag(FlagCF, false)
	case ia32.OpStc:
		c.setFlag(FlagCF, true)
	case ia32.OpCmc:
		c.setFlag(FlagCF, !c.getFlag(FlagCF))
	case ia32.OpCli:
		c.setFlag(FlagIF, false)
	case ia32.OpSti:
		c.setFlag(FlagIF, true)
	case ia32.OpCld:
		c.setFlag(FlagDF, false)
	case ia32.OpStd:
		c.setFlag(FlagDF, true)

	case ia32.OpMovs, ia32.OpStos, ia32.OpLods, ia32.OpScas, ia32.OpCmps:
		done, err := c.stringOp(i)
		if err != nil {
			return err
		}
		if !done {
			return nil // rep chunk exhausted: EIP stays, resume next Step
		}

	default:
		return &Exception{Vector: VecUD, EIP: c.EIP}
	}

	c.EIP = next
	return nil
}

func (c *CPU) portOf(i *ia32.Inst) uint16 {
	if i.HasImm {
		return uint16(uint32(i.Imm) & 0xFF)
	}
	return uint16(c.Regs[ia32.EDX])
}

func (c *CPU) read16(a ia32.Arg) (uint32, error) {
	if a.Kind == ia32.KindReg {
		return c.Regs[a.Reg] & 0xFFFF, nil
	}
	addr := c.ea(a.Mem)
	c.Cycles++
	v, err := c.Mem.Read16(addr)
	if err != nil {
		return 0, c.pageFault(err, addr)
	}
	return uint32(v), nil
}

func (c *CPU) divide(signed, w8 bool, src uint32) error {
	if w8 {
		src &= 0xFF
		if src == 0 {
			return &Exception{Vector: VecDE, EIP: c.EIP}
		}
		dividend := c.Regs[ia32.EAX] & 0xFFFF
		var quot, rem uint32
		if signed {
			q := int32(int16(dividend)) / int32(int8(src))
			r := int32(int16(dividend)) % int32(int8(src))
			if q > 127 || q < -128 {
				return &Exception{Vector: VecDE, EIP: c.EIP}
			}
			quot, rem = uint32(q)&0xFF, uint32(r)&0xFF
		} else {
			q := dividend / src
			if q > 0xFF {
				return &Exception{Vector: VecDE, EIP: c.EIP}
			}
			quot, rem = q, dividend%src
		}
		c.Regs[ia32.EAX] = c.Regs[ia32.EAX]&^uint32(0xFFFF) | rem<<8 | quot
		return nil
	}
	if src == 0 {
		return &Exception{Vector: VecDE, EIP: c.EIP}
	}
	dividend := uint64(c.Regs[ia32.EDX])<<32 | uint64(c.Regs[ia32.EAX])
	if signed {
		q := int64(dividend) / int64(int32(src))
		r := int64(dividend) % int64(int32(src))
		if q > 0x7FFFFFFF || q < -0x80000000 {
			return &Exception{Vector: VecDE, EIP: c.EIP}
		}
		c.Regs[ia32.EAX] = uint32(q)
		c.Regs[ia32.EDX] = uint32(r)
		return nil
	}
	q := dividend / uint64(src)
	if q > 0xFFFFFFFF {
		return &Exception{Vector: VecDE, EIP: c.EIP}
	}
	c.Regs[ia32.EAX] = uint32(q)
	c.Regs[ia32.EDX] = uint32(dividend % uint64(src))
	return nil
}

func (c *CPU) shift(i *ia32.Inst) error {
	var count uint32
	if i.HasImm {
		count = uint32(i.Imm)
	} else {
		count = c.Regs[ia32.ECX]
	}
	width := uint32(32)
	if i.W8 {
		width = 8
	}
	// The SDM masks the count to 5 bits for every shift/rotate first;
	// only then do RCL/RCR reduce it modulo width+1 (the carry makes the
	// rotation period 9 for 8-bit operands; for 32-bit operands the
	// masked count is already below 33). Taking the modulus before
	// masking — as an earlier version did — mis-rotates any count ≥ 32.
	count &= 31
	if (i.Op == ia32.OpRcl || i.Op == ia32.OpRcr) && i.W8 {
		count %= width + 1
	}
	dst, err := c.readArg(i.Args[0], i.W8)
	if err != nil {
		return err
	}
	if count == 0 {
		return c.writeArg(i.Args[0], i.W8, dst)
	}
	mask := uint32(0xFFFFFFFF)
	signBit := uint32(0x80000000)
	if i.W8 {
		mask, signBit = 0xFF, 0x80
		dst &= mask
	}

	var res uint32
	var cf bool
	switch i.Op {
	case ia32.OpShl:
		if count <= width {
			cf = dst&(1<<(width-count)) != 0
		}
		res = dst << count & mask
		c.szp(res, i.W8)
		c.setFlag(FlagCF, cf)
		c.setFlag(FlagOF, (res&signBit != 0) != cf)
	case ia32.OpShr:
		cf = dst>>(count-1)&1 != 0
		res = dst >> count
		c.szp(res, i.W8)
		c.setFlag(FlagCF, cf)
		c.setFlag(FlagOF, dst&signBit != 0)
	case ia32.OpSar:
		sres := int32(dst)
		if i.W8 {
			sres = int32(int8(dst))
		}
		cf = sres>>(count-1)&1 != 0
		res = uint32(sres>>count) & mask
		c.szp(res, i.W8)
		c.setFlag(FlagCF, cf)
		c.setFlag(FlagOF, false)
	case ia32.OpRol:
		k := count % width
		res = (dst<<k | dst>>(width-k)) & mask
		if k == 0 {
			res = dst
		}
		cf = res&1 != 0
		c.setFlag(FlagCF, cf)
		c.setFlag(FlagOF, (res&signBit != 0) != cf)
	case ia32.OpRor:
		k := count % width
		res = (dst>>k | dst<<(width-k)) & mask
		if k == 0 {
			res = dst
		}
		c.setFlag(FlagCF, res&signBit != 0)
		c.setFlag(FlagOF, (res&signBit != 0) != (res&(signBit>>1) != 0))
	case ia32.OpRcl:
		res = dst
		carry := c.getFlag(FlagCF)
		for k := uint32(0); k < count; k++ {
			newCarry := res&signBit != 0
			res = res << 1 & mask
			if carry {
				res |= 1
			}
			carry = newCarry
		}
		c.setFlag(FlagCF, carry)
		c.setFlag(FlagOF, (res&signBit != 0) != carry)
	case ia32.OpRcr:
		res = dst
		carry := c.getFlag(FlagCF)
		for k := uint32(0); k < count; k++ {
			newCarry := res&1 != 0
			res >>= 1
			if carry {
				res |= signBit
			}
			carry = newCarry
		}
		c.setFlag(FlagCF, carry)
		c.setFlag(FlagOF, (res&signBit != 0) != (res&(signBit>>1) != 0))
	}
	return c.writeArg(i.Args[0], i.W8, res)
}

func (c *CPU) doubleShift(i *ia32.Inst) error {
	var count uint32
	if i.HasImm {
		count = uint32(i.Imm) & 31
	} else {
		count = c.Regs[ia32.ECX] & 31
	}
	dst, err := c.readArg(i.Args[0], false)
	if err != nil {
		return err
	}
	if count == 0 {
		return nil
	}
	src := c.Regs[i.Args[1].Reg]
	var res uint32
	var cf bool
	if i.Op == ia32.OpShld {
		res = dst<<count | src>>(32-count)
		cf = dst>>(32-count)&1 != 0
	} else {
		res = dst>>count | src<<(32-count)
		cf = dst>>(count-1)&1 != 0
	}
	c.szp(res, false)
	c.setFlag(FlagCF, cf)
	c.setFlag(FlagOF, (res^dst)&0x80000000 != 0)
	return c.writeArg(i.Args[0], false, res)
}

// stringOp executes a string instruction, honoring REP prefixes. It
// returns done=false when a REP chunk limit was hit with iterations
// remaining (EIP must not advance).
func (c *CPU) stringOp(i *ia32.Inst) (bool, error) {
	size := uint32(4)
	if i.W8 {
		size = 1
	}
	delta := size
	if c.getFlag(FlagDF) {
		delta = -size
	}

	once := func() error {
		c.Cycles += 2
		switch i.Op {
		case ia32.OpMovs:
			v, err := c.memRead(c.Regs[ia32.ESI], i.W8)
			if err != nil {
				return err
			}
			if err := c.memWrite(c.Regs[ia32.EDI], i.W8, v); err != nil {
				return err
			}
			c.Regs[ia32.ESI] += delta
			c.Regs[ia32.EDI] += delta
		case ia32.OpStos:
			v := c.Regs[ia32.EAX]
			if err := c.memWrite(c.Regs[ia32.EDI], i.W8, v); err != nil {
				return err
			}
			c.Regs[ia32.EDI] += delta
		case ia32.OpLods:
			v, err := c.memRead(c.Regs[ia32.ESI], i.W8)
			if err != nil {
				return err
			}
			if i.W8 {
				c.setReg8(ia32.EAX, uint8(v))
			} else {
				c.Regs[ia32.EAX] = v
			}
			c.Regs[ia32.ESI] += delta
		case ia32.OpScas:
			v, err := c.memRead(c.Regs[ia32.EDI], i.W8)
			if err != nil {
				return err
			}
			acc := c.Regs[ia32.EAX]
			if i.W8 {
				acc &= 0xFF
			}
			c.flagsSub(acc, v, acc-v, i.W8, 0)
			c.Regs[ia32.EDI] += delta
		case ia32.OpCmps:
			a, err := c.memRead(c.Regs[ia32.ESI], i.W8)
			if err != nil {
				return err
			}
			b, err := c.memRead(c.Regs[ia32.EDI], i.W8)
			if err != nil {
				return err
			}
			c.flagsSub(a, b, a-b, i.W8, 0)
			c.Regs[ia32.ESI] += delta
			c.Regs[ia32.EDI] += delta
		}
		return nil
	}

	if i.Rep == ia32.RepNone {
		return true, once()
	}
	n := 0
	if !c.noBulkString && delta == size && (i.Op == ia32.OpMovs || i.Op == ia32.OpStos) {
		// Forward REP MOVS/STOS: retire page-sized spans at memcpy
		// speed, then fall into the per-element loop for whatever the
		// bulk path declined (tail, faulting element, overlap). Because
		// bulk iterations charge the identical per-element cycle cost
		// and the chunk still caps at maxRepChunk, every architectural
		// observable — registers, cycles, fault point, chunk boundary —
		// matches the per-element loop exactly.
		n = c.bulkString(i, size)
	}
	for ; n < maxRepChunk; n++ {
		if c.Regs[ia32.ECX] == 0 {
			return true, nil
		}
		if err := once(); err != nil {
			return false, err
		}
		c.Regs[ia32.ECX]--
		if i.Rep == ia32.Repe && !c.getFlag(FlagZF) {
			return true, nil
		}
		if i.Rep == ia32.Repne && c.getFlag(FlagZF) {
			return true, nil
		}
	}
	return c.Regs[ia32.ECX] == 0, nil
}

// bulkMinElems is the span size below which the bulk string path
// defers to the per-element loop: spans this short don't amortize the
// TLB lookups, and the tail of any long copy is at most one span.
const bulkMinElems = 8

// bulkString retires forward (DF clear) REP MOVS/STOS iterations in
// whole-page spans, returning how many it retired. It only ever acts
// on spans where no element can fault — both spans resolve inside one
// readable/writable page — and falls back (returns early) for
// everything else: page-straddling tails, faults, executable
// destinations (WriteSpan refuses them so code-generation tracking
// keeps per-write granularity), and overlapping same-page MOVS ranges
// (forward per-element copy re-reads bytes earlier iterations wrote; a
// span copy would not). Cycle charging per iteration is identical to
// the per-element loop: MOVS 4 (base 2 + read + write), STOS 3.
func (c *CPU) bulkString(i *ia32.Inst, size uint32) int {
	n := 0
	for n < maxRepChunk {
		cnt := uint32(maxRepChunk - n)
		if ecx := c.Regs[ia32.ECX]; ecx < cnt {
			cnt = ecx
		}
		edi := c.Regs[ia32.EDI]
		if m := (mem.PageSize - edi&(mem.PageSize-1)) / size; m < cnt {
			cnt = m
		}
		if i.Op == ia32.OpMovs {
			esi := c.Regs[ia32.ESI]
			if m := (mem.PageSize - esi&(mem.PageSize-1)) / size; m < cnt {
				cnt = m
			}
			if cnt < bulkMinElems {
				return n
			}
			so, do := esi&(mem.PageSize-1), edi&(mem.PageSize-1)
			if esi&^(mem.PageSize-1) == edi&^(mem.PageSize-1) &&
				so < do+cnt*size && do < so+cnt*size {
				return n
			}
			src := c.Mem.ReadSpan(esi, cnt*size)
			if src == nil {
				return n
			}
			dst := c.Mem.WriteSpan(edi, cnt*size)
			if dst == nil {
				return n
			}
			copy(dst, src)
			c.Regs[ia32.ESI] = esi + cnt*size
			c.Regs[ia32.EDI] = edi + cnt*size
			c.Regs[ia32.ECX] -= cnt
			c.Cycles += uint64(cnt) * 4
		} else {
			if cnt < bulkMinElems {
				return n
			}
			dst := c.Mem.WriteSpan(edi, cnt*size)
			if dst == nil {
				return n
			}
			v := c.Regs[ia32.EAX]
			pat := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
			copy(dst, pat[:size])
			for f := size; f < uint32(len(dst)); f *= 2 {
				copy(dst[f:], dst[:f])
			}
			c.Regs[ia32.EDI] = edi + cnt*size
			c.Regs[ia32.ECX] -= cnt
			c.Cycles += uint64(cnt) * 3
		}
		n += int(cnt)
	}
	return n
}

func (c *CPU) memRead(addr uint32, w8 bool) (uint32, error) {
	c.Cycles++
	if w8 {
		v, err := c.Mem.Read8(addr)
		if err != nil {
			return 0, c.pageFault(err, addr)
		}
		return uint32(v), nil
	}
	v, err := c.Mem.Read32(addr)
	if err != nil {
		return 0, c.pageFault(err, addr)
	}
	return v, nil
}

func (c *CPU) memWrite(addr uint32, w8 bool, v uint32) error {
	c.Cycles++
	var err error
	if w8 {
		err = c.Mem.Write8(addr, uint8(v))
	} else {
		err = c.Mem.Write32(addr, v)
	}
	if err != nil {
		return c.pageFault(err, addr)
	}
	return nil
}
