package mem

import (
	"bytes"
	"testing"
)

// Stale-snapshot restores: any snapshot, not just the most recent one,
// must restore exactly. These are the cases the pre-COW implementation
// silently corrupted (it replayed only the current dirty set, missing
// pages touched before a newer snapshot was taken).

func TestStaleRestoreSeesOlderWrites(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize, PermRW)
	must(t, m.Write32(0x1000, 0x11111111))
	s1 := m.TakeSnapshot()

	// Dirty the page, then take a newer snapshot: the page is clean
	// relative to s2, so a dirty-set-only restore of s1 would miss it.
	must(t, m.Write32(0x1000, 0x22222222))
	s2 := m.TakeSnapshot()
	must(t, m.Write32(0x1000, 0x33333333))

	m.Restore(s1)
	if v, _ := m.Read32(0x1000); v != 0x11111111 {
		t.Fatalf("after stale restore of s1: got %#x, want 0x11111111", v)
	}

	m.Restore(s2)
	if v, _ := m.Read32(0x1000); v != 0x22222222 {
		t.Fatalf("after restore of s2: got %#x, want 0x22222222", v)
	}
}

func TestStaleRestoreUndoesMapAndUnmap(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize, PermRW)
	must(t, m.Write8(0x1000, 0xAA))
	s1 := m.TakeSnapshot()

	m.Map(0x5000, PageSize, PermRW) // mapped after s1
	m.Unmap(0x1000, PageSize)       // unmapped after s1
	_ = m.TakeSnapshot()            // newer snapshot makes s1 stale
	must(t, m.Write8(0x5000, 0xBB))

	m.Restore(s1)
	if m.IsMapped(0x5000) {
		t.Fatal("page mapped after s1 still mapped after restoring s1")
	}
	if !m.IsMapped(0x1000) {
		t.Fatal("page unmapped after s1 not restored")
	}
	if v, _ := m.Read8(0x1000); v != 0xAA {
		t.Fatalf("restored page content: got %#x, want 0xAA", v)
	}
}

func TestStaleRestoreUndoesProtectOnly(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize, PermRW)
	s1 := m.TakeSnapshot()

	m.Protect(0x1000, PageSize, PermRead) // permission-only change
	_ = m.TakeSnapshot()

	m.Restore(s1)
	if p := m.PermAt(0x1000); p != PermRW {
		t.Fatalf("perm after stale restore: got %v, want %v", p, PermRW)
	}
	if err := m.Write8(0x1000, 1); err != nil {
		t.Fatalf("write after stale restore: %v", err)
	}
}

func TestRestoreAcrossBranchedHistory(t *testing.T) {
	// A: base state. B: branch one. C: branch two taken after restoring
	// A. Restoring B afterwards must see B's state exactly (the restore
	// has to union both branches' deltas over A).
	m := New()
	m.Map(0x1000, 2*PageSize, PermRW)
	must(t, m.Write8(0x1000, 1))
	a := m.TakeSnapshot()

	must(t, m.Write8(0x1000, 2))
	must(t, m.Write8(0x2000, 20))
	b := m.TakeSnapshot()

	m.Restore(a)
	must(t, m.Write8(0x2000, 30)) // diverge on the other page
	_ = m.TakeSnapshot()          // c: makes both a and b stale

	m.Restore(b)
	if v, _ := m.Read8(0x1000); v != 2 {
		t.Fatalf("page 0x1000 after restoring b: got %d, want 2", v)
	}
	if v, _ := m.Read8(0x2000); v != 20 {
		t.Fatalf("page 0x2000 after restoring b: got %d, want 20", v)
	}

	m.Restore(a)
	if v, _ := m.Read8(0x1000); v != 1 {
		t.Fatalf("page 0x1000 after restoring a: got %d, want 1", v)
	}
	if v, _ := m.Read8(0x2000); v != 0 {
		t.Fatalf("page 0x2000 after restoring a: got %d, want 0", v)
	}
}

func TestSnapshotSharesPagesCopyOnWrite(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize, PermRW)
	must(t, m.Write8(0x1000, 0x42))
	s := m.TakeSnapshot()

	// No copy at snapshot time: the snapshot holds the same page object.
	if m.pages[1] != s.pages[1] {
		t.Fatal("TakeSnapshot deep-copied a page; expected shared ownership")
	}
	if !m.pages[1].shared || m.pages[1].dirty {
		t.Fatalf("snapshot page flags: shared=%v dirty=%v, want shared clean",
			m.pages[1].shared, m.pages[1].dirty)
	}

	// First write clones; the snapshot's page must keep its bytes.
	must(t, m.Write8(0x1000, 0x99))
	if m.pages[1] == s.pages[1] {
		t.Fatal("write mutated a snapshot-owned page in place")
	}
	if s.pages[1].data[0] != 0x42 {
		t.Fatalf("snapshot data corrupted by post-snapshot write: %#x", s.pages[1].data[0])
	}
	if v, _ := m.Read8(0x1000); v != 0x99 {
		t.Fatalf("live read after clone: got %#x, want 0x99", v)
	}

	// Restore repoints to the shared page rather than copying.
	m.Restore(s)
	if m.pages[1] != s.pages[1] {
		t.Fatal("Restore copied instead of repointing to the snapshot page")
	}
	if v, _ := m.Read8(0x1000); v != 0x42 {
		t.Fatalf("read after restore: got %#x, want 0x42", v)
	}
}

func TestCloneRepointsLiveTLBEntries(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize, PermRW)
	must(t, m.Write8(0x1000, 0x11))
	s := m.TakeSnapshot()

	// Populate the read TLB way with the shared page.
	if v, _ := m.Read8(0x1000); v != 0x11 {
		t.Fatal("setup read failed")
	}
	// The write clones the page; the cached read translation must not
	// keep serving the old (snapshot-owned) bytes.
	must(t, m.Write8(0x1000, 0x22))
	if v, _ := m.Read8(0x1000); v != 0x22 {
		t.Fatalf("read TLB served stale snapshot page after clone: got %#x", v)
	}
	if s.pages[1].data[0] != 0x11 {
		t.Fatal("snapshot bytes changed")
	}
}

func TestWriteRawClonesSharedPage(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize, PermRX) // read-only text, like kernel code
	s := m.TakeSnapshot()

	must(t, m.WriteRaw(0x1000, []byte{0xCC}))
	if s.pages[1].data[0] != 0 {
		t.Fatal("WriteRaw mutated a snapshot-owned page")
	}
	b, err := m.ReadRaw(0x1000, 1)
	if err != nil || b[0] != 0xCC {
		t.Fatalf("ReadRaw after WriteRaw: %v %v", b, err)
	}
	m.Restore(s)
	b, _ = m.ReadRaw(0x1000, 1)
	if b[0] != 0 {
		t.Fatalf("restore did not undo WriteRaw: %#x", b[0])
	}
}

func TestStaleRestoreCodeGenInvalidation(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize, PermRX)
	must(t, m.WriteRaw(0x1000, []byte{0x90}))
	s1 := m.TakeSnapshot()

	must(t, m.WriteRaw(0x1000, []byte{0xCC})) // exec change after s1
	s2 := m.TakeSnapshot()

	g := m.CodeGen()
	m.Restore(s1) // stale; rolls back an exec change
	if m.CodeGen() == g {
		t.Fatal("stale restore rolled back executable content without bumping codeGen")
	}
	b, _ := m.ReadRaw(0x1000, 1)
	if b[0] != 0x90 {
		t.Fatalf("text after stale restore: got %#x, want 0x90", b[0])
	}

	g = m.CodeGen()
	m.Restore(s2)
	if m.CodeGen() == g {
		t.Fatal("restore reinstating different executable content did not bump codeGen")
	}
	b, _ = m.ReadRaw(0x1000, 1)
	if b[0] != 0xCC {
		t.Fatalf("text after restoring s2: got %#x, want 0xCC", b[0])
	}
}

func TestDeltaOverRestoredDeltaKeepsCodePages(t *testing.T) {
	// D2 is taken on top of a restored D1, which changed a text page; D2
	// changes only data. D2 still differs from the root in that text
	// page, so restoring the root from D2 must roll back its executable
	// content and re-stamp it for the decode caches.
	m := New()
	m.Map(0x1000, PageSize, PermRX)
	m.Map(0x2000, PageSize, PermRW)
	must(t, m.WriteRaw(0x1000, []byte{0x90}))
	root := m.TakeSnapshot()

	must(t, m.WriteRaw(0x1000, []byte{0xCC}))
	d1 := m.TakeSnapshot()
	m.Restore(root)
	m.Restore(d1)
	must(t, m.Write8(0x2000, 7))
	_ = m.TakeSnapshot() // d2

	g := m.CodePageGen(1)
	m.Restore(root)
	if m.CodePageGen(1) == g {
		t.Fatal("restoring the root from a delta over D1 did not re-stamp D1's text page")
	}
	if b, _ := m.ReadRaw(0x1000, 1); b[0] != 0x90 {
		t.Fatalf("text after restoring the root: got %#x, want 0x90", b[0])
	}
}

func TestRestoreOfAnotherMemorysSnapshotPanics(t *testing.T) {
	// A snapshot of one Memory must not restore into another, root or
	// delta, whether or not the other has taken its own root.
	a, b := New(), New()
	a.Map(0x1000, PageSize, PermRW)
	b.Map(0x1000, PageSize, PermRW)
	foreign := []*Snapshot{a.TakeSnapshot(), a.TakeSnapshot()} // root, delta
	for _, took := range []bool{false, true} {
		if took {
			_ = b.TakeSnapshot()
		}
		for i, s := range foreign {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("restoring snapshot %d of another Memory did not panic (own root taken: %v)", i, took)
					}
				}()
				b.Restore(s)
			}()
		}
	}
}

func TestManySnapshotsCoexist(t *testing.T) {
	// Golden snapshot plus several checkpoints, restored in arbitrary
	// order, must all keep their exact state.
	m := New()
	m.Map(0x1000, 4*PageSize, PermRW)
	var snaps []*Snapshot
	var want [][]byte
	for i := 0; i < 6; i++ {
		must(t, m.Write8(0x1000+uint32(i)*0x800, byte(i+1)))
		snaps = append(snaps, m.TakeSnapshot())
		img, err := m.ReadBytes(0x1000, 4*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, img)
	}
	for _, i := range []int{3, 0, 5, 2, 4, 1, 0, 5} {
		m.Restore(snaps[i])
		got, err := m.ReadBytes(0x1000, 4*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("snapshot %d: restored image differs", i)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
