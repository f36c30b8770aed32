package cpu

import (
	"errors"

	"repro/internal/ia32"
	"repro/internal/mem"
)

// Superblock trace execution: straight-line instruction runs are
// decoded once into cached blocks of compiled ops (compile.go) and
// executed through a tight dispatch loop. The per-instruction
// overheads of the single-step path — debug-register scan,
// decode-cache probe, host-return and stop-flag checks, cycle-budget
// compare — are hoisted to one check per block entry, and the generic
// exec switch with its operand decoding and six-flag computation is
// replaced, for the common instruction shapes, by a handler with
// pre-resolved operands that leaves its flags in a lazy record.
//
// Correctness is by construction, not by re-verification: a block
// only ever contains instructions that cannot leave the straight line
// except by a conditional branch, which exits the block when taken
// (every other control transfer, trap, port access or string
// instruction terminates its block and is re-dispatched through the
// outer loop), so after op k the machine is in precisely the state
// the single-step reference would be in, and any exception returns
// with that exact state. The differential oracle in
// block_oracle_test.go enforces this equivalence on random programs;
// Run with DisableBlocks is the single-step reference arm.
//
// Invalidation rides the memory package's code-generation tracking at
// two granularities. The fast tag is the global CodeGen: while it is
// unchanged, every cached block is valid. When it moves — an
// injection flipped an instruction bit, a restore rolled it back —
// each block revalidates against CodePageGen of the one page it
// decodes from, and when that moved too, against the code bytes it
// was decoded from: a flip on page P discards only the blocks whose
// own bytes it changed, and every other block survives whole
// injection runs.

// Block-cache geometry: direct-mapped on a multiplicative (Fibonacci)
// hash of the block's start EIP, so blocks at the same offset in
// different pages do not evict each other.
const (
	bcacheBits = 12
	bcacheSize = 1 << bcacheBits
	bcacheHash = 0x9E3779B1 // 2^32 / golden ratio
)

// bslot returns eip's block-cache slot.
func bslot(eip uint32) uint32 { return eip * bcacheHash >> (32 - bcacheBits) }

// maxBlockInsts caps a block's length. Blocks also never extend
// across a page boundary (so one CodePageGen tag covers the whole
// block) and never include the host-return sentinel address.
const maxBlockInsts = 32

// instCycleBound is a per-instruction upper bound on the cycles
// c.exec can charge for any block-eligible instruction: the bound of a
// generic op (a compiled op's bound is its exact charge, see
// op.maxCycles). The costliest are DIV/IDIV (1 base + 1 operand read +
// 10) and PUSHA/POPA (1 base + 8 stack accesses); string instructions
// are unbounded but always terminate a block, and a block's
// budget-safety margin deliberately excludes its last instruction (see
// blockSafe).
const instCycleBound = 16

// block is one compiled superblock: a straight-line instruction run
// starting at eip, ending (exclusive) at end, all within one page.
type block struct {
	eip uint32
	end uint32
	// gen is the fast validity tag: the block is valid while gen ==
	// Mem.CodeGen()+1 (the +1 keeps the zero value invalid, matching
	// the decode cache's convention). It is refreshed in place when a
	// global bump turns out not to have touched this block's code.
	gen uint64
	// pageGen is the slow revalidation tag: Mem.CodePageGen of the
	// block's page when the block was last known to match its code.
	// While it is unchanged the decoded bytes are unchanged, whatever
	// the global generation did.
	pageGen uint64
	// slack is the budget-safety margin: an upper bound on the cycles
	// charged by every instruction except the last. Entering the block
	// with more than slack budget remaining guarantees the single-step
	// loop would also have reached (and started) the last instruction.
	slack uint64
	// ops holds the compiled run. Empty means a negative entry: the
	// first instruction at eip does not decode into a block (undecodable
	// bytes, a fetch fault, or a page-straddling encoding) and dispatch
	// must single-step instead of re-attempting the build.
	ops []op
	// code is the bytes [eip, end) the ops were decoded from: when the
	// page's code changed, a block whose own bytes did not is kept.
	code []byte
}

// BlockStats are the block engine's lifetime counters for one CPU.
// Workers ship deltas of them in wire reply frames.
type BlockStats struct {
	// Hits counts dispatches served by a cached valid block.
	Hits uint64 `json:",omitempty"`
	// Misses counts block builds (including negative entries).
	Misses uint64 `json:",omitempty"`
	// Flushes counts cached blocks discarded because the code they
	// decoded actually changed (page-level invalidation).
	Flushes uint64 `json:",omitempty"`
	// Fallbacks counts single-step dispatches taken while the block
	// engine was on: breakpoint inside the block, exhausted budget
	// margin, or an unbuildable block.
	Fallbacks uint64 `json:",omitempty"`
}

// Sub returns the counts accumulated since prev.
func (s BlockStats) Sub(prev BlockStats) BlockStats {
	return BlockStats{s.Hits - prev.Hits, s.Misses - prev.Misses, s.Flushes - prev.Flushes, s.Fallbacks - prev.Fallbacks}
}

// BlockStats returns the block engine's counters.
func (c *CPU) BlockStats() BlockStats { return c.bstats }

// isBlockTerminator reports whether op must end its block.
// Unconditional control transfers leave the straight line (a jcc does
// only when taken, and then exits the block); traps and HLT never fall
// through; IN/OUT reach host hooks that may remap memory (the MMU
// ports) behind the decoded run; string instructions may retire a
// partial REP chunk without advancing EIP. All of these are legal as
// a block's final instruction — dispatch revalidates before the next
// block — but nothing may be decoded past them.
func isBlockTerminator(op ia32.Op) bool {
	switch op {
	case ia32.OpJmp, ia32.OpCall, ia32.OpRet, ia32.OpLret,
		ia32.OpInt3, ia32.OpInt, ia32.OpInto, ia32.OpHlt, ia32.OpUd2,
		ia32.OpIn, ia32.OpOut,
		ia32.OpMovs, ia32.OpStos, ia32.OpLods, ia32.OpScas, ia32.OpCmps:
		return true
	}
	return false
}

// blockFor returns the block starting at eip, building it on a miss.
// The result always has eip as its start; it may be a negative entry
// (no ops).
func (c *CPU) blockFor(eip uint32) *block {
	if c.bcache == nil {
		c.bcache = make([]*block, bcacheSize)
	}
	slot := &c.bcache[bslot(eip)]
	gen := c.Mem.CodeGen() + 1
	if b := *slot; b != nil && b.eip == eip {
		if b.gen == gen {
			c.bstats.Hits++
			return b
		}
		if c.codeUnchanged(b) {
			b.gen = gen
			c.bstats.Hits++
			return b
		}
		c.bstats.Flushes++
	}
	b := c.buildBlock(eip, gen)
	*slot = b
	c.bstats.Misses++
	return b
}

// codeUnchanged reports whether b still matches the code at its
// address after the global code generation moved. If the bump
// happened on other pages the decode is exact; if it happened on b's
// page, b is still exact when the bytes it was decoded from are
// unchanged and still executable — a flip elsewhere on the page, or a
// flip and the restore that rolled it back.
func (c *CPU) codeUnchanged(b *block) bool {
	pg := c.Mem.CodePageGen(b.eip >> blockPageShift)
	if pg == b.pageGen {
		return true
	}
	if len(b.ops) == 0 {
		return false // a negative entry has no bytes to compare
	}
	buf := c.codeBuf[:len(b.code)]
	if n, err := c.Mem.Fetch(b.eip, buf); err != nil || n != len(buf) || string(buf) != string(b.code) {
		return false
	}
	b.pageGen = pg
	return true
}

// blockPageShift mirrors the memory page geometry (mem.PageSize).
const blockPageShift = 12

// buildBlock decodes and compiles the straight-line run starting at
// eip. It stops at block terminators, the page boundary, the
// host-return sentinel, and maxBlockInsts.
func (c *CPU) buildBlock(eip uint32, gen uint64) *block {
	b := &block{
		eip:     eip,
		end:     eip,
		gen:     gen,
		pageGen: c.Mem.CodePageGen(eip >> blockPageShift),
	}
	// The run may not extend past the block's page (one pageGen tag
	// covers it) nor reach the host-return sentinel (the run loop must
	// observe that EIP before executing anything there).
	limit := (uint64(eip) &^ (mem.PageSize - 1)) + mem.PageSize
	if eip>>blockPageShift == HostReturn>>blockPageShift && uint64(HostReturn) < limit {
		limit = uint64(HostReturn)
	}
	ops, code := c.buildOps[:0], c.codeBuf[:0]
	at := uint64(eip)
	for len(ops) < maxBlockInsts && at < limit {
		n, err := c.Mem.Fetch(uint32(at), c.fetch[:])
		if err != nil {
			break
		}
		inst, derr := ia32.Decode(c.fetch[:n])
		if derr != nil {
			break
		}
		if at+uint64(inst.Len) > limit {
			// The encoding straddles the page end (or the sentinel):
			// leave it to the single-step path.
			break
		}
		ops = append(ops, compile(&inst, uint32(at)))
		code = append(code, c.fetch[:inst.Len]...)
		at += uint64(inst.Len)
		if isBlockTerminator(inst.Op) {
			break
		}
	}
	c.buildOps = ops
	b.end = uint32(at)
	if n := len(ops); n > 0 {
		b.ops = append([]op(nil), ops...)
		b.code = append([]byte(nil), code...)
		for _, o := range ops[:n-1] {
			b.slack += o.maxCycles()
		}
	}
	return b
}

// blockSafe reports whether b can be executed whole right now with
// behavior identical to single-stepping it:
//
//   - Budget: the single-step loop re-checks the cycle limit before
//     every instruction. Requiring more than b.slack remaining budget
//     guarantees every instruction of the block would also have
//     started under per-instruction checking (slack bounds the cycles
//     of all instructions but the last; whether the last one finishes
//     over the limit is irrelevant — it would have started, and cycle
//     charging inside an instruction is unconditional either way).
//   - Breakpoints: an armed debug register inside [eip, end) could
//     fire mid-block; fall back so the per-instruction scan runs.
//     Registers outside the range can never match any EIP the block
//     visits, so the hoisted range check is exact, not approximate.
func (c *CPU) blockSafe(b *block, limit uint64) bool {
	if limit-c.Cycles <= b.slack {
		return false
	}
	if c.OnBreakpoint != nil && c.DREnabled != [4]bool{} {
		size := b.end - b.eip
		for i := 0; i < 4; i++ {
			if c.DREnabled[i] && c.DR[i]-b.eip < size {
				return false
			}
		}
	}
	return true
}

// runBlocks is Run's block-engine loop (budget, stop-flag and
// host-return semantics identical to runStep; see Run).
func (c *CPU) runBlocks(limit uint64) (StopReason, *Exception) {
	defer c.foldFlags() // the lazy flags never outlive the loop
	poll := 0
	for c.Cycles < limit {
		if c.EIP == HostReturn {
			return StopReturned, nil
		}
		if poll >= stopPollInterval {
			poll = 0
			if c.Stop != nil && c.Stop.Load() {
				return StopInterrupted, nil
			}
		}
		var err error
		if b := c.blockFor(c.EIP); len(b.ops) > 0 && c.blockSafe(b, limit) {
			var n int
			n, err = c.execBlock(b)
			poll += n
		} else {
			c.bstats.Fallbacks++
			c.foldFlags()
			err = c.Step()
			poll++
		}
		if err == nil {
			continue
		}
		if errors.Is(err, ErrHalted) {
			return StopHalted, nil
		}
		var exc *Exception
		if errors.As(err, &exc) {
			return StopException, exc
		}
		return StopException, &Exception{Vector: VecDF, EIP: c.EIP}
	}
	if c.EIP == HostReturn {
		return StopReturned, nil
	}
	return StopBudget, nil
}
