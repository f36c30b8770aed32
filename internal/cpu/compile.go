package cpu

import "repro/internal/ia32"

// Compiled ops: buildBlock turns every decoded instruction into an op
// — a handler plus the operands it needs, resolved once at build time
// — and execBlock runs a block's ops through one switch instead of
// the generic exec. Handlers cover the 32-bit shapes that make up the
// bulk of the simulated kernel's executed instructions (jcc, register
// and memory moves, the ALU ops with register, immediate or load
// operands, push/pop, call/ret, jmp); everything else — 8-bit forms,
// shifts, multiply/divide, string ops, port I/O, traps — is a generic
// op that calls exec on its own decoded instruction.
//
// Each handler is exec specialized by hand, and must stay observably
// identical to it: the same cycles charged in the same order relative
// to memory accesses (a fault reports the cycles charged before it),
// and on a fault the registers, flags and EIP of the instruction
// start. ALU handlers leave their flags in the lazy record (flags.go)
// instead of Eflags; they only record after their last possible
// fault. The block oracle (block_oracle_test.go) compares the engine
// against single-step exec on random programs.

// handler selects an op's implementation in execBlock.
type handler uint8

const (
	hGeneric handler = iota // exec(o.inst)
	hJcc                    // jcc rel: exits the block when taken
	hJmp                    // jmp rel
	hCall                   // call rel
	hRet                    // ret
	hMovRR                  // mov r, r2
	hMovRI                  // mov r, imm
	hLoad                   // mov r, [m]
	hStoreR                 // mov [m], r
	hStoreI                 // mov [m], imm
	hLea                    // lea r, [m]
	hPushR                  // push r
	hPushI                  // push imm
	hPopR                   // pop r
	hInc                    // inc r
	hDec                    // dec r
	hAluRR                  // alu r, r2
	hAluRI                  // alu r, imm
	hAluRM                  // alu r, [m]
	hAluMI                  // cmp/test [m], imm
	hAluMR                  // cmp/test [m], r
)

// op is one compiled instruction. Its fields are ordered to pack it
// into 32 bytes.
type op struct {
	m ia32.MemRef
	// imm is the immediate operand; for hJcc, hJmp and hCall it is the
	// branch target.
	imm  uint32
	h    handler
	alu  ia32.Op   // hAlu*: add, sub, cmp, and, or, xor or test
	r    ia32.Reg  // the register operand (the destination if there is one)
	r2   ia32.Reg  // hAluRR, hMovRR: the source register
	cond ia32.Cond // hJcc: the condition code
	len  uint8     // the instruction's length: the next one is at EIP+len
	// inst is the decoded instruction of a generic op (nil otherwise).
	inst *ia32.Inst
}

// compile resolves the decoded instruction i at eip into an op.
func compile(i *ia32.Inst, eip uint32) op {
	o := op{h: hGeneric, len: i.Len, imm: uint32(i.Imm)}
	a0, a1 := i.Args[0], i.Args[1]
	reg0, mem0 := a0.Kind == ia32.KindReg, a0.Kind == ia32.KindMem
	reg1, mem1 := a1.Kind == ia32.KindReg, a1.Kind == ia32.KindMem
	o.r, o.r2 = a0.Reg, a1.Reg
	switch i.Op {
	case ia32.OpJcc:
		o.h, o.cond, o.imm = hJcc, i.Cond, i.BranchTarget(eip)
	case ia32.OpJmp:
		if a0.Kind == ia32.KindNone {
			o.h, o.imm = hJmp, i.BranchTarget(eip)
		}
	case ia32.OpCall:
		if a0.Kind == ia32.KindNone {
			o.h, o.imm = hCall, i.BranchTarget(eip)
		}
	case ia32.OpRet:
		if !i.HasImm {
			o.h = hRet
		}
	case ia32.OpMov:
		switch {
		case i.W8:
		case reg0 && reg1:
			o.h = hMovRR
		case reg0 && i.HasImm:
			o.h = hMovRI
		case reg0 && mem1:
			o.h, o.m = hLoad, a1.Mem
		case mem0 && reg1:
			o.h, o.m, o.r = hStoreR, a0.Mem, a1.Reg
		case mem0 && i.HasImm:
			o.h, o.m = hStoreI, a0.Mem
		}
	case ia32.OpLea:
		o.h, o.m = hLea, a1.Mem
	case ia32.OpPush:
		switch {
		case i.HasImm:
			o.h = hPushI
		case reg0:
			o.h = hPushR
		}
	case ia32.OpPop:
		if reg0 {
			o.h = hPopR
		}
	case ia32.OpInc, ia32.OpDec:
		if reg0 && !i.W8 {
			o.h = hInc
			if i.Op == ia32.OpDec {
				o.h = hDec
			}
		}
	case ia32.OpAdd, ia32.OpSub, ia32.OpCmp, ia32.OpAnd, ia32.OpOr, ia32.OpXor, ia32.OpTest:
		o.alu = i.Op
		noWrite := i.Op == ia32.OpCmp || i.Op == ia32.OpTest
		switch {
		case i.W8:
		case reg0 && reg1:
			o.h = hAluRR
		case reg0 && i.HasImm:
			o.h = hAluRI
		case reg0 && mem1:
			o.h, o.m = hAluRM, a1.Mem
		case mem0 && i.HasImm && noWrite:
			o.h, o.m = hAluMI, a0.Mem
		case mem0 && reg1 && noWrite:
			o.h, o.m, o.r = hAluMR, a0.Mem, a1.Reg
		}
	}
	if o.h == hGeneric {
		inst := *i
		o.inst = &inst
	}
	return o
}

// maxCycles bounds the cycles the op charges (block.slack).
func (o *op) maxCycles() uint64 {
	switch o.h {
	case hGeneric:
		return instCycleBound
	case hCall, hRet, hLoad, hStoreR, hStoreI, hPushR, hPushI, hPopR, hAluRM, hAluMI, hAluMR:
		return 2 // the base cycle and one memory access
	}
	return 1
}

// alu performs a compiled ALU op on a and b: it records the flags
// lazily and, except for cmp and test, writes the result to o.r.
func (c *CPU) alu(o *op, a, b uint32) {
	res, kind := a&b, lazyLogic // and, test
	switch o.alu {
	case ia32.OpAdd:
		res, kind = a+b, lazyAdd
	case ia32.OpSub, ia32.OpCmp:
		res, kind = a-b, lazySub
	case ia32.OpOr:
		res = a | b
	case ia32.OpXor:
		res = a ^ b
	}
	c.lazy = lazyFlags{op: kind, a: a, b: b, res: res}
	if o.alu != ia32.OpCmp && o.alu != ia32.OpTest {
		c.Regs[o.r] = res
	}
}

// execBlock runs b's ops in order, returning the number executed and
// the first error. A non-final op either faults (leaving state at its
// start, exactly like Step) or falls through to the next op, except a
// taken jcc, which leaves the block. The one mid-block hazard is code
// changing under the block: after every op that can store, a moved
// CodeGen ends the block at the following instruction boundary — the
// boundary at which the single-step path would redecode — and the
// dispatcher revalidates there.
func (c *CPU) execBlock(b *block) (int, error) {
	want := b.gen - 1 // the Mem.CodeGen() value the block is valid against
	ops := b.ops
	for k := range ops {
		o := &ops[k]
		switch o.h {
		case hGeneric:
			c.foldFlags()
			if err := c.exec(o.inst); err != nil {
				return k, err
			}
			if c.Mem.CodeGen() != want {
				return k + 1, nil
			}
			continue // exec has set EIP

		case hJcc:
			c.Cycles++
			var taken bool
			if f := &c.lazy; o.cond|1 == ia32.CondNE && f.op != lazyNone {
				// je, jne: every lazy kind has ZF = (res == 0).
				taken = (f.res == 0) == (o.cond == ia32.CondE)
			} else {
				taken = c.cond(uint8(o.cond))
			}
			if taken {
				c.EIP = o.imm
				return k + 1, nil
			}

		case hJmp:
			c.Cycles++
			c.EIP = o.imm
			return k + 1, nil

		case hCall:
			c.Cycles++
			if err := c.push(c.EIP + uint32(o.len)); err != nil {
				return k, err
			}
			c.EIP = o.imm
			return k + 1, nil

		case hRet:
			c.Cycles++
			v, err := c.pop()
			if err != nil {
				return k, err
			}
			c.EIP = v
			return k + 1, nil

		case hMovRR:
			c.Cycles++
			c.Regs[o.r] = c.Regs[o.r2]

		case hMovRI:
			c.Cycles++
			c.Regs[o.r] = o.imm

		case hLoad:
			c.Cycles += 2
			addr := c.ea(o.m)
			v, err := c.Mem.Read32(addr)
			if err != nil {
				return k, c.pageFault(err, addr)
			}
			c.Regs[o.r] = v

		case hStoreR, hStoreI:
			v := o.imm
			if o.h == hStoreR {
				v = c.Regs[o.r]
			}
			c.Cycles += 2
			addr := c.ea(o.m)
			if err := c.Mem.Write32(addr, v); err != nil {
				return k, c.pageFault(err, addr)
			}
			c.EIP += uint32(o.len)
			if c.Mem.CodeGen() != want {
				return k + 1, nil
			}
			continue

		case hLea:
			c.Cycles++
			c.Regs[o.r] = c.ea(o.m)

		case hPushR, hPushI:
			v := o.imm
			if o.h == hPushR {
				v = c.Regs[o.r]
			}
			c.Cycles++
			if err := c.push(v); err != nil {
				return k, err
			}
			c.EIP += uint32(o.len)
			if c.Mem.CodeGen() != want {
				return k + 1, nil
			}
			continue

		case hPopR:
			c.Cycles++
			v, err := c.pop()
			if err != nil {
				return k, err
			}
			c.Regs[o.r] = v

		case hInc, hDec:
			c.Cycles++
			a := c.Regs[o.r]
			kind, res := lazyInc, a+1
			if o.h == hDec {
				kind, res = lazyDec, a-1
			}
			c.lazy = lazyFlags{op: kind, a: a, res: res, cf: c.carry()}
			c.Regs[o.r] = res

		case hAluRR:
			c.Cycles++
			c.alu(o, c.Regs[o.r], c.Regs[o.r2])

		case hAluRI:
			c.Cycles++
			c.alu(o, c.Regs[o.r], o.imm)

		case hAluRM:
			c.Cycles += 2
			addr := c.ea(o.m)
			v, err := c.Mem.Read32(addr)
			if err != nil {
				return k, c.pageFault(err, addr)
			}
			c.alu(o, c.Regs[o.r], v)

		case hAluMI, hAluMR:
			c.Cycles += 2
			addr := c.ea(o.m)
			v, err := c.Mem.Read32(addr)
			if err != nil {
				return k, c.pageFault(err, addr)
			}
			src := o.imm
			if o.h == hAluMR {
				src = c.Regs[o.r]
			}
			c.alu(o, v, src)
		}
		c.EIP += uint32(o.len)
	}
	return len(ops), nil
}
