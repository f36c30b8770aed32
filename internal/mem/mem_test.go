package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestMapReadWrite(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x2000, PermRW)
	if err := m.Write32(0x1000, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read32(0x1000)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("Read32 = %#x, %v", v, err)
	}
	if err := m.Write8(0x2FFF, 0xAB); err != nil {
		t.Fatal(err)
	}
	b, err := m.Read8(0x2FFF)
	if err != nil || b != 0xAB {
		t.Fatalf("Read8 = %#x, %v", b, err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x2000, PermRW)
	// 32-bit access straddling a page boundary.
	if err := m.Write32(0x1FFE, 0x11223344); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read32(0x1FFE)
	if err != nil || v != 0x11223344 {
		t.Fatalf("cross-page read = %#x, %v", v, err)
	}
}

func TestUnmappedFault(t *testing.T) {
	m := New()
	_, err := m.Read32(0x0) // NULL page never mapped
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want Fault, got %v", err)
	}
	if !f.NotPresent || f.Addr != 0 || f.Access != AccessRead {
		t.Fatalf("fault = %+v", f)
	}
}

func TestPermissionFault(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, PermRX)
	err := m.Write8(0x1004, 1)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want Fault, got %v", err)
	}
	if f.NotPresent || f.Access != AccessWrite || f.Addr != 0x1004 {
		t.Fatalf("fault = %+v", f)
	}
	// Execute fetch needs X.
	m.Map(0x2000, 0x1000, PermRW)
	buf := make([]byte, 4)
	if _, err := m.Fetch(0x2000, buf); err == nil {
		t.Fatal("fetch from non-exec page should fault")
	}
	if _, err := m.Fetch(0x1000, buf); err != nil {
		t.Fatalf("fetch from RX page: %v", err)
	}
}

func TestFetchPartialAtBoundary(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, PermRX) // only one page; 0x2000 unmapped
	buf := make([]byte, 15)
	n, err := m.Fetch(0x1FF8, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("partial fetch n = %d, want 8", n)
	}
}

func TestWriteRawIgnoresPerms(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, PermRX)
	if err := m.WriteRaw(0x1000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadRaw(0x1000, 3)
	if err != nil || got[0] != 1 || got[2] != 3 {
		t.Fatalf("ReadRaw = % x, %v", got, err)
	}
	if err := m.WriteRaw(0x5000, []byte{1}); err == nil {
		t.Fatal("WriteRaw to unmapped should fail")
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x3000, PermRW)
	if err := m.Write32(0x1500, 0xAAAA); err != nil {
		t.Fatal(err)
	}
	snap := m.TakeSnapshot()

	if err := m.Write32(0x1500, 0xBBBB); err != nil {
		t.Fatal(err)
	}
	if err := m.Write32(0x2500, 0xCCCC); err != nil {
		t.Fatal(err)
	}
	m.Restore(snap)

	v, _ := m.Read32(0x1500)
	if v != 0xAAAA {
		t.Fatalf("restored value = %#x, want 0xAAAA", v)
	}
	v, _ = m.Read32(0x2500)
	if v != 0 {
		t.Fatalf("restored untouched value = %#x, want 0", v)
	}
}

func TestSnapshotRestoreStructural(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, PermRW)
	snap := m.TakeSnapshot()

	m.Map(0x9000, 0x1000, PermRW) // structural change
	if err := m.Write32(0x9000, 1); err != nil {
		t.Fatal(err)
	}
	m.Restore(snap)
	if m.IsMapped(0x9000) {
		t.Fatal("page mapped after snapshot should disappear on restore")
	}
	if !m.IsMapped(0x1000) {
		t.Fatal("original page lost")
	}
}

func TestSnapshotRestoreRepeatable(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, PermRW)
	_ = m.Write32(0x1000, 7)
	snap := m.TakeSnapshot()
	for i := 0; i < 3; i++ {
		_ = m.Write32(0x1000, uint32(100+i))
		m.Restore(snap)
		v, _ := m.Read32(0x1000)
		if v != 7 {
			t.Fatalf("iteration %d: restored = %d, want 7", i, v)
		}
	}
}

// Property: a write followed by a read at the same address returns the
// written value, for arbitrary in-range addresses.
func TestReadAfterWriteProperty(t *testing.T) {
	m := New()
	m.Map(0x10000, 0x10000, PermRW)
	f := func(off uint16, val uint32) bool {
		addr := 0x10000 + uint32(off)&0xFFFC
		if err := m.Write32(addr, val); err != nil {
			return false
		}
		v, err := m.Read32(addr)
		return err == nil && v == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermAt(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, PermRX)
	if m.PermAt(0x1000) != PermRX {
		t.Fatalf("PermAt = %v", m.PermAt(0x1000))
	}
	if m.PermAt(0x0) != 0 {
		t.Fatal("unmapped PermAt should be 0")
	}
	m.Protect(0x1000, 0x1000, PermRW)
	if m.PermAt(0x1000) != PermRW {
		t.Fatal("Protect did not apply")
	}
}

// TestWatch: every access overlapping the watched range reports its
// whole range, repeated accesses keep reporting (the page never enters
// the TLB), neighbours stay silent, ClearWatch ends it, and a range may
// span pages.
func TestWatch(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x2000, PermRW)
	type hit struct {
		addr, n uint32
		acc     Access
	}
	var hits []hit
	m.SetWatch(0x2000, 4, func(addr, n uint32, acc Access) { hits = append(hits, hit{addr, n, acc}) })
	expect := func(what string, want ...hit) {
		t.Helper()
		if len(hits) != len(want) {
			t.Fatalf("%s: hits %v, want %v", what, hits, want)
		}
		for i := range want {
			if hits[i] != want[i] {
				t.Fatalf("%s: hits %v, want %v", what, hits, want)
			}
		}
		hits = nil
	}
	if err := m.Write32(0x2000, 7); err != nil {
		t.Fatal(err)
	}
	expect("write", hit{0x2000, 4, AccessWrite})
	for i := 0; i < 2; i++ {
		if v, err := m.Read32(0x2000); err != nil || v != 7 {
			t.Fatalf("Read32 = %d, %v", v, err)
		}
		expect("repeated read", hit{0x2000, 4, AccessRead})
	}
	m.Read32(0x2004)
	m.Read8(0x1FFF)
	m.Write32(0x2FFC, 1)
	expect("neighbours")
	m.Read8(0x2003)
	expect("last byte", hit{0x2003, 1, AccessRead})
	// A straddling write reports its whole range from the watched page.
	m.Write32(0x1FFE, 0x11223344)
	expect("straddle", hit{0x1FFE, 4, AccessWrite})
	m.ReadBytes(0x1FF0, 0x20)
	expect("ReadBytes", hit{0x2000, 0x10, AccessRead})
	m.WriteBytes(0x2002, []byte{1, 2})
	expect("WriteBytes probe and write", hit{0x2002, 2, AccessWrite}, hit{0x2002, 2, AccessWrite})
	m.ReadSpan(0x2000, 8)
	expect("ReadSpan", hit{0x2000, 8, AccessRead})
	m.ReadRaw(0x2001, 1)
	m.WriteRaw(0x2002, []byte{9})
	m.RawPage(2)
	expect("raw", hit{0x2001, 1, AccessRead}, hit{0x2002, 1, AccessWrite}, hit{0x2000, PageSize, AccessRead})
	m.ClearWatch()
	m.Read32(0x2000)
	m.Write32(0x2000, 1)
	expect("cleared")
	// A range over two pages watches both; an access that spans them
	// reports from each.
	m.SetWatch(0x1FFC, 8, func(addr, n uint32, acc Access) { hits = append(hits, hit{addr, n, acc}) })
	m.Read32(0x1FFC)
	m.Read32(0x2000)
	m.Read32(0x1FF8)
	m.Read32(0x2004)
	expect("two pages", hit{0x1FFC, 4, AccessRead}, hit{0x2000, 4, AccessRead})
	m.Write32(0x1FFE, 5)
	expect("span", hit{0x1FFE, 4, AccessWrite}, hit{0x1FFE, 4, AccessWrite})
	m.ClearWatch()
}
