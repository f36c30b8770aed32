package ia32

import (
	"errors"
	"fmt"
)

// ErrCannotEncode reports an instruction form outside the encodable
// subset.
var ErrCannotEncode = errors.New("ia32: cannot encode instruction form")

func fitsInt8(v int32) bool { return v >= -128 && v <= 127 }

// encOpts control encoding-size decisions; the assembler forces 32-bit
// fields for symbolic operands so instruction lengths are stable across
// its sizing and emit passes.
type encOpts struct {
	forceDisp32 bool
	forceImm32  bool
}

// encodeModRM emits the ModRM byte (plus SIB and displacement) for reg
// and the given r/m operand.
func encodeModRMOpt(o encOpts, reg uint8, rm Arg) ([]byte, error) {
	if rm.Kind == KindReg {
		return []byte{0xC0 | reg<<3 | uint8(rm.Reg)}, nil
	}
	if rm.Kind != KindMem {
		return nil, ErrCannotEncode
	}
	m := rm.Mem

	disp32 := func(v int32) []byte {
		u := uint32(v)
		return []byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24)}
	}

	// Absolute or index-only addressing.
	if !m.HasBase {
		if !m.HasIndex {
			out := []byte{0x00 | reg<<3 | 5}
			return append(out, disp32(m.Disp)...), nil
		}
		if m.Index == ESP {
			return nil, ErrCannotEncode
		}
		sib := scaleBits(m.Scale)<<6 | uint8(m.Index)<<3 | 5
		out := []byte{0x00 | reg<<3 | 4, sib}
		return append(out, disp32(m.Disp)...), nil
	}

	// Base (+ index) addressing: pick the displacement size.
	var mod uint8
	switch {
	case o.forceDisp32:
		mod = 2
	case m.Disp == 0 && m.Base != EBP:
		mod = 0
	case fitsInt8(m.Disp):
		mod = 1
	default:
		mod = 2
	}

	needSIB := m.HasIndex || m.Base == ESP
	var out []byte
	if needSIB {
		idx := uint8(4) // none
		scale := uint8(0)
		if m.HasIndex {
			if m.Index == ESP {
				return nil, ErrCannotEncode
			}
			idx = uint8(m.Index)
			scale = scaleBits(m.Scale)
		}
		out = []byte{mod<<6 | reg<<3 | 4, scale<<6 | idx<<3 | uint8(m.Base)}
	} else {
		out = []byte{mod<<6 | reg<<3 | uint8(m.Base)}
	}
	switch mod {
	case 1:
		out = append(out, byte(m.Disp))
	case 2:
		out = append(out, disp32(m.Disp)...)
	}
	return out, nil
}

func scaleBits(s uint8) uint8 {
	switch s {
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	default:
		return 0
	}
}

func imm32Bytes(v int32) []byte {
	u := uint32(v)
	return []byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24)}
}

var aluBase = map[Op]byte{
	OpAdd: 0x00, OpOr: 0x08, OpAdc: 0x10, OpSbb: 0x18,
	OpAnd: 0x20, OpSub: 0x28, OpXor: 0x30, OpCmp: 0x38,
}

var aluGrp1Idx = map[Op]uint8{
	OpAdd: 0, OpOr: 1, OpAdc: 2, OpSbb: 3, OpAnd: 4, OpSub: 5, OpXor: 6, OpCmp: 7,
}

var grp2Idx = map[Op]uint8{
	OpRol: 0, OpRor: 1, OpRcl: 2, OpRcr: 3, OpShl: 4, OpShr: 5, OpSar: 7,
}

// EncodeBranch encodes a relative Jcc/Jmp/Call. size selects the
// encoding: 2 = rel8 (5 for call which has no short form), otherwise the
// rel32 form. rel is relative to the end of the instruction.
func EncodeBranch(op Op, cond Cond, rel int32, short bool) ([]byte, error) {
	switch op {
	case OpJcc:
		if short {
			if !fitsInt8(rel) {
				return nil, fmt.Errorf("%w: jcc rel8 out of range", ErrCannotEncode)
			}
			return []byte{0x70 + byte(cond), byte(rel)}, nil
		}
		return append([]byte{0x0F, 0x80 + byte(cond)}, imm32Bytes(rel)...), nil
	case OpJmp:
		if short {
			if !fitsInt8(rel) {
				return nil, fmt.Errorf("%w: jmp rel8 out of range", ErrCannotEncode)
			}
			return []byte{0xEB, byte(rel)}, nil
		}
		return append([]byte{0xE9}, imm32Bytes(rel)...), nil
	case OpCall:
		return append([]byte{0xE8}, imm32Bytes(rel)...), nil
	}
	return nil, ErrCannotEncode
}

// BranchLen returns the encoded length of a relative branch.
func BranchLen(op Op, short bool) int {
	switch op {
	case OpJcc:
		if short {
			return 2
		}
		return 6
	case OpJmp:
		if short {
			return 2
		}
		return 5
	default: // call
		return 5
	}
}

// Encode produces machine code for the instruction. Relative branches
// must go through EncodeBranch (the assembler owns branch sizing).
func Encode(i Inst) ([]byte, error) { return encode(i, encOpts{}) }

// EncodeForced is Encode with the displacement and/or immediate fields
// forced to their 32-bit encodings (used by the assembler for symbolic
// operands whose final values are not yet known).
func EncodeForced(i Inst, forceDisp32, forceImm32 bool) ([]byte, error) {
	return encode(i, encOpts{forceDisp32: forceDisp32, forceImm32: forceImm32})
}

func encode(i Inst, o encOpts) ([]byte, error) {
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}

	switch i.Op {
	case OpMov:
		if i.HasImm {
			if i.Args[0].Kind == KindReg {
				if i.W8 {
					return []byte{0xB0 + byte(i.Args[0].Reg), byte(i.Imm)}, nil
				}
				return append([]byte{0xB8 + byte(i.Args[0].Reg)}, imm32Bytes(i.Imm)...), nil
			}
			mrm, err := encodeModRMOpt(o, 0, i.Args[0])
			if err != nil {
				return nil, err
			}
			if i.W8 {
				return cat([]byte{0xC6}, mrm, []byte{byte(i.Imm)}), nil
			}
			return cat([]byte{0xC7}, mrm, imm32Bytes(i.Imm)), nil
		}
		return encodeRMPair(o, i, 0x88, 0x89, 0x8A, 0x8B)
	case OpAdd, OpOr, OpAdc, OpSbb, OpAnd, OpSub, OpXor, OpCmp:
		if i.HasImm {
			mrm, err := encodeModRMOpt(o, aluGrp1Idx[i.Op], i.Args[0])
			if err != nil {
				return nil, err
			}
			if i.W8 {
				return cat([]byte{0x80}, mrm, []byte{byte(i.Imm)}), nil
			}
			if fitsInt8(i.Imm) && !o.forceImm32 {
				return cat([]byte{0x83}, mrm, []byte{byte(i.Imm)}), nil
			}
			return cat([]byte{0x81}, mrm, imm32Bytes(i.Imm)), nil
		}
		base := aluBase[i.Op]
		return encodeRMPair(o, i, base, base+1, base+2, base+3)
	case OpTest:
		if i.HasImm {
			mrm, err := encodeModRMOpt(o, 0, i.Args[0])
			if err != nil {
				return nil, err
			}
			if i.W8 {
				return cat([]byte{0xF6}, mrm, []byte{byte(i.Imm)}), nil
			}
			return cat([]byte{0xF7}, mrm, imm32Bytes(i.Imm)), nil
		}
		// test only has the rm,r direction.
		dst, src := i.Args[0], i.Args[1]
		if src.Kind != KindReg {
			dst, src = src, dst
		}
		if src.Kind != KindReg {
			return nil, ErrCannotEncode
		}
		mrm, err := encodeModRMOpt(o, uint8(src.Reg), dst)
		if err != nil {
			return nil, err
		}
		opb := byte(0x85)
		if i.W8 {
			opb = 0x84
		}
		return cat([]byte{opb}, mrm), nil
	case OpXchg:
		dst, src := i.Args[0], i.Args[1]
		if src.Kind != KindReg {
			dst, src = src, dst
		}
		if src.Kind != KindReg {
			return nil, ErrCannotEncode
		}
		mrm, err := encodeModRMOpt(o, uint8(src.Reg), dst)
		if err != nil {
			return nil, err
		}
		opb := byte(0x87)
		if i.W8 {
			opb = 0x86
		}
		return cat([]byte{opb}, mrm), nil
	case OpLea:
		if i.Args[0].Kind != KindReg || i.Args[1].Kind != KindMem {
			return nil, ErrCannotEncode
		}
		mrm, err := encodeModRMOpt(o, uint8(i.Args[0].Reg), i.Args[1])
		if err != nil {
			return nil, err
		}
		return cat([]byte{0x8D}, mrm), nil
	case OpPush:
		if i.HasImm {
			if fitsInt8(i.Imm) && !o.forceImm32 {
				return []byte{0x6A, byte(i.Imm)}, nil
			}
			return append([]byte{0x68}, imm32Bytes(i.Imm)...), nil
		}
		if i.Args[0].Kind == KindReg {
			return []byte{0x50 + byte(i.Args[0].Reg)}, nil
		}
		mrm, err := encodeModRMOpt(o, 6, i.Args[0])
		if err != nil {
			return nil, err
		}
		return cat([]byte{0xFF}, mrm), nil
	case OpPop:
		if i.Args[0].Kind == KindReg {
			return []byte{0x58 + byte(i.Args[0].Reg)}, nil
		}
		mrm, err := encodeModRMOpt(o, 0, i.Args[0])
		if err != nil {
			return nil, err
		}
		return cat([]byte{0x8F}, mrm), nil
	case OpInc, OpDec:
		idx := uint8(0)
		if i.Op == OpDec {
			idx = 1
		}
		if !i.W8 && i.Args[0].Kind == KindReg {
			return []byte{byte(0x40 + idx*8 + uint8(i.Args[0].Reg))}, nil
		}
		mrm, err := encodeModRMOpt(o, idx, i.Args[0])
		if err != nil {
			return nil, err
		}
		opb := byte(0xFF)
		if i.W8 {
			opb = 0xFE
		}
		return cat([]byte{opb}, mrm), nil
	case OpNot, OpNeg, OpMul, OpImul1, OpDiv, OpIdiv:
		idx := map[Op]uint8{OpNot: 2, OpNeg: 3, OpMul: 4, OpImul1: 5, OpDiv: 6, OpIdiv: 7}[i.Op]
		mrm, err := encodeModRMOpt(o, idx, i.Args[0])
		if err != nil {
			return nil, err
		}
		opb := byte(0xF7)
		if i.W8 {
			opb = 0xF6
		}
		return cat([]byte{opb}, mrm), nil
	case OpImul2:
		mrm, err := encodeModRMOpt(o, uint8(i.Args[0].Reg), i.Args[1])
		if err != nil {
			return nil, err
		}
		return cat([]byte{0x0F, 0xAF}, mrm), nil
	case OpImul3:
		mrm, err := encodeModRMOpt(o, uint8(i.Args[0].Reg), i.Args[1])
		if err != nil {
			return nil, err
		}
		if fitsInt8(i.Imm) && !o.forceImm32 {
			return cat([]byte{0x6B}, mrm, []byte{byte(i.Imm)}), nil
		}
		return cat([]byte{0x69}, mrm, imm32Bytes(i.Imm)), nil
	case OpRol, OpRor, OpRcl, OpRcr, OpShl, OpShr, OpSar:
		idx := grp2Idx[i.Op]
		mrm, err := encodeModRMOpt(o, idx, i.Args[0])
		if err != nil {
			return nil, err
		}
		if i.HasImm {
			if i.Imm == 1 {
				opb := byte(0xD1)
				if i.W8 {
					opb = 0xD0
				}
				return cat([]byte{opb}, mrm), nil
			}
			opb := byte(0xC1)
			if i.W8 {
				opb = 0xC0
			}
			return cat([]byte{opb}, mrm, []byte{byte(i.Imm)}), nil
		}
		opb := byte(0xD3)
		if i.W8 {
			opb = 0xD2
		}
		return cat([]byte{opb}, mrm), nil
	case OpShld, OpShrd:
		mrm, err := encodeModRMOpt(o, uint8(i.Args[1].Reg), i.Args[0])
		if err != nil {
			return nil, err
		}
		base := byte(0xA4)
		if i.Op == OpShrd {
			base = 0xAC
		}
		if i.HasImm {
			return cat([]byte{0x0F, base}, mrm, []byte{byte(i.Imm)}), nil
		}
		return cat([]byte{0x0F, base + 1}, mrm), nil
	case OpJmp, OpCall:
		if i.Args[0].Kind == KindNone {
			return nil, fmt.Errorf("%w: relative branch must use EncodeBranch", ErrCannotEncode)
		}
		idx := uint8(4)
		if i.Op == OpCall {
			idx = 2
		}
		mrm, err := encodeModRMOpt(o, idx, i.Args[0])
		if err != nil {
			return nil, err
		}
		return cat([]byte{0xFF}, mrm), nil
	case OpRet:
		if i.HasImm {
			return []byte{0xC2, byte(i.Imm), byte(i.Imm >> 8)}, nil
		}
		return []byte{0xC3}, nil
	case OpLret:
		if i.HasImm {
			return []byte{0xCA, byte(i.Imm), byte(i.Imm >> 8)}, nil
		}
		return []byte{0xCB}, nil
	case OpLeave:
		return []byte{0xC9}, nil
	case OpInt3:
		return []byte{0xCC}, nil
	case OpInt:
		return []byte{0xCD, byte(i.Imm)}, nil
	case OpInto:
		return []byte{0xCE}, nil
	case OpBound:
		mrm, err := encodeModRMOpt(o, uint8(i.Args[0].Reg), i.Args[1])
		if err != nil {
			return nil, err
		}
		return cat([]byte{0x62}, mrm), nil
	case OpHlt:
		return []byte{0xF4}, nil
	case OpUd2:
		return []byte{0x0F, 0x0B}, nil
	case OpNop:
		return []byte{0x90}, nil
	case OpCwde:
		return []byte{0x98}, nil
	case OpCdq:
		return []byte{0x99}, nil
	case OpPusha:
		return []byte{0x60}, nil
	case OpPopa:
		return []byte{0x61}, nil
	case OpPushf:
		return []byte{0x9C}, nil
	case OpPopf:
		return []byte{0x9D}, nil
	case OpSahf:
		return []byte{0x9E}, nil
	case OpLahf:
		return []byte{0x9F}, nil
	case OpSetcc:
		mrm, err := encodeModRMOpt(o, 0, i.Args[0])
		if err != nil {
			return nil, err
		}
		return cat([]byte{0x0F, 0x90 + byte(i.Cond)}, mrm), nil
	case OpMovzx8, OpMovzx16, OpMovsx8, OpMovsx16:
		opb := map[Op]byte{OpMovzx8: 0xB6, OpMovzx16: 0xB7, OpMovsx8: 0xBE, OpMovsx16: 0xBF}[i.Op]
		mrm, err := encodeModRMOpt(o, uint8(i.Args[0].Reg), i.Args[1])
		if err != nil {
			return nil, err
		}
		return cat([]byte{0x0F, opb}, mrm), nil
	case OpIn:
		if i.HasImm {
			if i.W8 {
				return []byte{0xE4, byte(i.Imm)}, nil
			}
			return []byte{0xE5, byte(i.Imm)}, nil
		}
		if i.W8 {
			return []byte{0xEC}, nil
		}
		return []byte{0xED}, nil
	case OpOut:
		if i.HasImm {
			if i.W8 {
				return []byte{0xE6, byte(i.Imm)}, nil
			}
			return []byte{0xE7, byte(i.Imm)}, nil
		}
		if i.W8 {
			return []byte{0xEE}, nil
		}
		return []byte{0xEF}, nil
	case OpClc:
		return []byte{0xF8}, nil
	case OpStc:
		return []byte{0xF9}, nil
	case OpCmc:
		return []byte{0xF5}, nil
	case OpCli:
		return []byte{0xFA}, nil
	case OpSti:
		return []byte{0xFB}, nil
	case OpCld:
		return []byte{0xFC}, nil
	case OpStd:
		return []byte{0xFD}, nil
	case OpMovs, OpStos, OpLods, OpScas, OpCmps:
		base := map[Op]byte{OpMovs: 0xA4, OpCmps: 0xA6, OpStos: 0xAA, OpLods: 0xAC, OpScas: 0xAE}[i.Op]
		opb := base
		if !i.W8 {
			opb++
		}
		switch i.Rep {
		case Rep, Repe:
			return []byte{0xF3, opb}, nil
		case Repne:
			return []byte{0xF2, opb}, nil
		}
		return []byte{opb}, nil
	}
	return nil, fmt.Errorf("%w: op %d", ErrCannotEncode, i.Op)
}

// encodeRMPair encodes two-operand forms that have rm<-r and r<-rm
// variants.
func encodeRMPair(o encOpts, i Inst, rm8r8, rm32r32, r8rm8, r32rm32 byte) ([]byte, error) {
	dst, src := i.Args[0], i.Args[1]
	switch {
	case src.Kind == KindReg: // rm <- r form
		mrm, err := encodeModRMOpt(o, uint8(src.Reg), dst)
		if err != nil {
			return nil, err
		}
		opb := rm32r32
		if i.W8 {
			opb = rm8r8
		}
		return append([]byte{opb}, mrm...), nil
	case dst.Kind == KindReg: // r <- rm form
		mrm, err := encodeModRMOpt(o, uint8(dst.Reg), src)
		if err != nil {
			return nil, err
		}
		opb := r32rm32
		if i.W8 {
			opb = r8rm8
		}
		return append([]byte{opb}, mrm...), nil
	}
	return nil, ErrCannotEncode
}
