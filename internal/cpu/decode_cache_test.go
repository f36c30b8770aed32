package cpu_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/ia32"
	"repro/internal/mem"
)

// The decode cache must be invisible: execution after any change to
// executable bytes — direct corruption or a snapshot restore — must
// match a cache-less interpreter. These tests pin both invalidation
// directions plus the survival guarantee for data-only restores.

func TestDecodeCacheInvalidatedByCodeWrite(t *testing.T) {
	m := mem.New()
	m.Map(0x1000, 0x1000, mem.PermRX)
	c := cpu.New(m)

	// mov eax, 0x11111111
	if err := m.WriteRaw(0x1000, []byte{0xB8, 0x11, 0x11, 0x11, 0x11, 0x90}); err != nil {
		t.Fatal(err)
	}
	c.EIP = 0x1000
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.Regs[ia32.EAX] != 0x11111111 {
		t.Fatalf("EAX = %#x", c.Regs[ia32.EAX])
	}

	// Flip one immediate byte — exactly what the injection harness does.
	if err := m.WriteRaw(0x1001, []byte{0x22}); err != nil {
		t.Fatal(err)
	}
	c.EIP = 0x1000
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.Regs[ia32.EAX] != 0x11111122 {
		t.Fatalf("stale decode executed: EAX = %#x, want 0x11111122", c.Regs[ia32.EAX])
	}
}

func TestDecodeCacheInvalidatedByRestore(t *testing.T) {
	m := mem.New()
	m.Map(0x1000, 0x1000, mem.PermRX)
	c := cpu.New(m)
	if err := m.WriteRaw(0x1000, []byte{0xB8, 0x11, 0x11, 0x11, 0x11, 0x90}); err != nil {
		t.Fatal(err)
	}
	snap := m.TakeSnapshot()

	step := func() uint32 {
		t.Helper()
		c.EIP = 0x1000
		c.Regs[ia32.EAX] = 0
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		return c.Regs[ia32.EAX]
	}

	if v := step(); v != 0x11111111 {
		t.Fatalf("pristine run: EAX = %#x", v)
	}
	if err := m.WriteRaw(0x1001, []byte{0x22}); err != nil {
		t.Fatal(err)
	}
	if v := step(); v != 0x11111122 {
		t.Fatalf("corrupted run: EAX = %#x", v)
	}
	m.Restore(snap)
	if v := step(); v != 0x11111111 {
		t.Fatalf("corrupted decode survived restore: EAX = %#x, want 0x11111111", v)
	}
}

func TestDecodeCacheSurvivesDataOnlyRestore(t *testing.T) {
	m := mem.New()
	m.Map(0x1000, 0x1000, mem.PermRX)
	m.Map(0x8000, 0x1000, mem.PermRW)
	c := cpu.New(m)
	// mov [0x8000], eax ; nop
	if err := m.WriteRaw(0x1000, []byte{0xA3, 0x00, 0x80, 0x00, 0x00, 0x90}); err != nil {
		t.Fatal(err)
	}
	snap := m.TakeSnapshot()
	gen := m.CodeGen()

	for i := 0; i < 3; i++ {
		c.EIP = 0x1000
		c.Regs[ia32.EAX] = uint32(0x100 + i)
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if v, _ := m.Read32(0x8000); v != uint32(0x100+i) {
			t.Fatalf("iteration %d: store = %#x", i, v)
		}
		m.Restore(snap)
	}
	if m.CodeGen() != gen {
		t.Fatalf("CodeGen moved %d -> %d: data-only restores invalidated the decode cache", gen, m.CodeGen())
	}
}

func TestDecodeCacheAcrossStaleCheckpointRestore(t *testing.T) {
	// Checkpoint-style usage: a golden snapshot plus a later checkpoint
	// with different text coexist; restores hop between them (including
	// stale restores) and execution must always match the restored
	// bytes — the decode cache may never serve the other image's decode.
	m := mem.New()
	m.Map(0x1000, 0x1000, mem.PermRX)
	c := cpu.New(m)
	if err := m.WriteRaw(0x1000, []byte{0xB8, 0x11, 0x11, 0x11, 0x11, 0x90}); err != nil {
		t.Fatal(err)
	}
	golden := m.TakeSnapshot()

	step := func() uint32 {
		t.Helper()
		c.EIP = 0x1000
		c.Regs[ia32.EAX] = 0
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		return c.Regs[ia32.EAX]
	}

	if v := step(); v != 0x11111111 {
		t.Fatalf("golden run: EAX = %#x", v)
	}
	// Corrupt one immediate byte and capture a checkpoint of the
	// corrupted image; golden is now stale.
	if err := m.WriteRaw(0x1001, []byte{0x22}); err != nil {
		t.Fatal(err)
	}
	checkpoint := m.TakeSnapshot()
	if v := step(); v != 0x11111122 {
		t.Fatalf("checkpoint run: EAX = %#x", v)
	}

	for i := 0; i < 3; i++ {
		m.Restore(golden) // stale restore: rolls back executable bytes
		if v := step(); v != 0x11111111 {
			t.Fatalf("iter %d: stale golden restore executed wrong decode: EAX = %#x", i, v)
		}
		m.Restore(checkpoint)
		if v := step(); v != 0x11111122 {
			t.Fatalf("iter %d: checkpoint restore executed wrong decode: EAX = %#x", i, v)
		}
	}
}

func TestCaptureRestoreStateRoundTrip(t *testing.T) {
	m := mem.New()
	m.Map(0x1000, 0x1000, mem.PermRX)
	c := cpu.New(m)
	c.Regs = [8]uint32{1, 2, 3, 4, 5, 6, 7, 8}
	c.EIP = 0x1234
	c.Eflags = 0x246
	c.Cycles = 999
	st := c.CaptureState()

	c.Reset()
	c.SetBreakpoint(0, 0x1000)
	c.RestoreState(st)
	if c.Regs != [8]uint32{1, 2, 3, 4, 5, 6, 7, 8} || c.EIP != 0x1234 ||
		c.Eflags != 0x246 || c.Cycles != 999 {
		t.Fatalf("state not restored: %+v EIP=%#x Eflags=%#x Cycles=%d",
			c.Regs, c.EIP, c.Eflags, c.Cycles)
	}
	if c.DREnabled != [4]bool{} {
		t.Fatal("RestoreState left debug registers armed")
	}
}

// TestBlockRevalidatedByBytes: a code write on a block's page that
// misses the block's own bytes keeps the block (no flush), while a
// write inside a block, and the restore that rolls it back, each
// flush it and execution sees the bytes of the moment.
func TestBlockRevalidatedByBytes(t *testing.T) {
	m := build(t, `
f:
	mov eax, 1
	add eax, 2
	ret
g:
	mov eax, 5
	ret
`)
	g, _ := m.prog.FuncByName("g")
	call := func(fn string, want uint32) cpu.BlockStats {
		t.Helper()
		if got := mustReturn(t, m, fn); got != want {
			t.Fatalf("%s returned %d, want %d", fn, got, want)
		}
		return m.cpu.BlockStats()
	}
	call("g", 5)
	before := call("f", 3)
	snap := m.mem.TakeSnapshot()

	// mov eax, imm32 is B8 imm32: g.Addr+1 is the immediate's low byte.
	if err := m.mem.WriteRaw(g.Addr+1, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if st := call("f", 3); st.Flushes != before.Flushes || st.Misses != before.Misses {
		t.Fatalf("f's block was not kept across a write to g: before %+v, after %+v", before, st)
	}
	if st := call("g", 7); st.Flushes != before.Flushes+1 {
		t.Fatalf("g's changed block was not flushed: before %+v, after %+v", before, st)
	}
	m.mem.Restore(snap)
	if st := call("g", 5); st.Flushes != before.Flushes+2 {
		t.Fatalf("g's block was not flushed by the restore: before %+v, after %+v", before, st)
	}
	if st := call("f", 3); st.Flushes != before.Flushes+2 {
		t.Fatalf("f's block was not kept across the restore: before %+v, after %+v", before, st)
	}
}

// TestBlockCacheSamePageOffset: blocks at the same offset in different
// pages do not evict each other from the block cache.
func TestBlockCacheSamePageOffset(t *testing.T) {
	m := mem.New()
	m.Map(0x1000, 0x2000, mem.PermRX)
	m.Map(0x8000, 0x1000, mem.PermRW)
	c := cpu.New(m)
	for i, addr := range []uint32{0x1100, 0x2100} { // mov eax, i+1; ret
		if err := m.WriteRaw(addr, []byte{0xB8, byte(i + 1), 0, 0, 0, 0xC3}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for i, addr := range []uint32{0x1100, 0x2100} {
			c.Regs[ia32.ESP] = 0x8800
			if err := m.Write32(0x8800, cpu.HostReturn); err != nil {
				t.Fatal(err)
			}
			c.EIP = addr
			if r, exc := c.Run(1000); r != cpu.StopReturned || c.Regs[ia32.EAX] != uint32(i+1) {
				t.Fatalf("run at %#x: stop %v (%v), eax %d", addr, r, exc, c.Regs[ia32.EAX])
			}
		}
	}
	if st := c.BlockStats(); st.Misses != 2 {
		t.Fatalf("blocks at the same page offset evicted each other: %+v", st)
	}
}
