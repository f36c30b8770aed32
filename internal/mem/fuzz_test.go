package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Differential oracle for the dirty-set / copy-on-write restore paths:
// random sequences of Map/Unmap/Protect/writes interleaved with
// TakeSnapshot, TakeDeltaSnapshot over an earlier snapshot, reads of a
// snapshot through ReadRaw/RawPage/PermAt, and Restore (of arbitrary,
// including stale, snapshots) are mirrored against a naive reference implementation that deep-copies
// the whole address space on every snapshot and rebuilds it structurally
// on every restore. Any divergence in page existence, permissions,
// content, or visible read/write results is a bug in the fast paths.

// refMem is the reference model: value-semantics pages, no sharing, no
// dirty tracking.
type refMem struct {
	pages map[uint32]refPage
}

type refPage struct {
	perm Perm
	data []byte
}

type refSnap map[uint32]refPage

func newRefMem() *refMem { return &refMem{pages: make(map[uint32]refPage)} }

func (r *refMem) mapRange(addr, size uint32, perm Perm) {
	first := addr >> pageShift
	last := (addr + size - 1) >> pageShift
	for pn := first; pn <= last; pn++ {
		r.pages[pn] = refPage{perm: perm, data: make([]byte, PageSize)}
	}
}

func (r *refMem) unmap(addr, size uint32) {
	first := addr >> pageShift
	last := (addr + size - 1) >> pageShift
	for pn := first; pn <= last; pn++ {
		delete(r.pages, pn)
	}
}

func (r *refMem) protect(addr, size uint32, perm Perm) {
	first := addr >> pageShift
	last := (addr + size - 1) >> pageShift
	for pn := first; pn <= last; pn++ {
		if p, ok := r.pages[pn]; ok {
			p.perm = perm
			r.pages[pn] = p
		}
	}
}

func (r *refMem) writable(addr uint32) bool {
	p, ok := r.pages[addr>>pageShift]
	return ok && p.perm&PermWrite != 0
}

// write8..write32 mirror the documented fault-atomicity: probe every
// page before committing any byte.
func (r *refMem) writeN(addr uint32, bs []byte, raw bool) error {
	for i := range bs {
		a := addr + uint32(i)
		if raw {
			if _, ok := r.pages[a>>pageShift]; !ok {
				return &Fault{Addr: a, Access: AccessWrite, NotPresent: true}
			}
		} else if !r.writable(a) {
			p, ok := r.pages[a>>pageShift]
			_ = p
			return &Fault{Addr: a, Access: AccessWrite, NotPresent: !ok}
		}
	}
	for i, b := range bs {
		a := addr + uint32(i)
		r.pages[a>>pageShift].data[a&(PageSize-1)] = b
	}
	return nil
}

func (r *refMem) read8(addr uint32) (byte, error) {
	p, ok := r.pages[addr>>pageShift]
	if !ok {
		return 0, &Fault{Addr: addr, Access: AccessRead, NotPresent: true}
	}
	if p.perm&PermRead == 0 {
		return 0, &Fault{Addr: addr, Access: AccessRead}
	}
	return p.data[addr&(PageSize-1)], nil
}

func (r *refMem) snapshot() refSnap {
	s := make(refSnap, len(r.pages))
	for pn, p := range r.pages {
		cp := refPage{perm: p.perm, data: make([]byte, PageSize)}
		copy(cp.data, p.data)
		s[pn] = cp
	}
	return s
}

func (r *refMem) restore(s refSnap) {
	r.pages = make(map[uint32]refPage, len(s))
	for pn, p := range s {
		cp := refPage{perm: p.perm, data: make([]byte, PageSize)}
		copy(cp.data, p.data)
		r.pages[pn] = cp
	}
}

// compareState asserts the fast Memory and the reference agree on every
// page's existence, permissions, and full content.
func compareState(t *testing.T, step int, m *Memory, r *refMem) {
	t.Helper()
	if len(m.pages) != len(r.pages) {
		t.Fatalf("step %d: page count: fast=%d ref=%d", step, len(m.pages), len(r.pages))
	}
	for pn, rp := range r.pages {
		mp, ok := m.pages[pn]
		if !ok {
			t.Fatalf("step %d: page %#x mapped in ref, missing in fast", step, pn)
		}
		if mp.perm != rp.perm {
			t.Fatalf("step %d: page %#x perm: fast=%v ref=%v", step, pn, mp.perm, rp.perm)
		}
		if !bytes.Equal(mp.data, rp.data) {
			t.Fatalf("step %d: page %#x content differs", step, pn)
		}
		if mp.shared && mp.dirty {
			t.Fatalf("step %d: page %#x both shared and dirty", step, pn)
		}
	}
}

// fuzzStep applies one random operation to both implementations and
// checks visible results agree. Returns a description for failure logs.
func fuzzStep(t *testing.T, rng *rand.Rand, m *Memory, r *refMem,
	snaps *[]*Snapshot, refSnaps *[]refSnap, step int) string {
	// Confine to a window of 8 pages so operations collide often.
	const pnBase = 0x10
	addr := uint32(pnBase)<<pageShift + uint32(rng.Intn(8*PageSize))
	perms := []Perm{PermRead, PermRW, PermRX, PermRWX, PermWrite}

	switch op := rng.Intn(100); {
	case op < 12: // Map 1-3 pages
		size := uint32(1+rng.Intn(3)) * PageSize
		perm := perms[rng.Intn(len(perms))]
		m.Map(addr, size, perm)
		r.mapRange(addr, size, perm)
		return fmt.Sprintf("Map(%#x, %#x, %v)", addr, size, perm)
	case op < 18: // Unmap 1-3 pages
		size := uint32(1+rng.Intn(3)) * PageSize
		m.Unmap(addr, size)
		r.unmap(addr, size)
		return fmt.Sprintf("Unmap(%#x, %#x)", addr, size)
	case op < 28: // Protect-only dirtying (a suspect path)
		size := uint32(1+rng.Intn(2)) * PageSize
		perm := perms[rng.Intn(len(perms))]
		m.Protect(addr, size, perm)
		r.protect(addr, size, perm)
		return fmt.Sprintf("Protect(%#x, %#x, %v)", addr, size, perm)
	case op < 48: // Write8/16/32, possibly page-straddling
		switch rng.Intn(3) {
		case 0:
			v := byte(rng.Intn(256))
			e1 := m.Write8(addr, v)
			e2 := r.writeN(addr, []byte{v}, false)
			checkErrAgree(t, step, "Write8", e1, e2)
			return fmt.Sprintf("Write8(%#x, %#x)", addr, v)
		case 1:
			v := uint16(rng.Uint32())
			e1 := m.Write16(addr, v)
			e2 := r.writeN(addr, []byte{byte(v), byte(v >> 8)}, false)
			checkErrAgree(t, step, "Write16", e1, e2)
			return fmt.Sprintf("Write16(%#x, %#x)", addr, v)
		default:
			v := rng.Uint32()
			e1 := m.Write32(addr, v)
			e2 := r.writeN(addr, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}, false)
			checkErrAgree(t, step, "Write32", e1, e2)
			return fmt.Sprintf("Write32(%#x, %#x)", addr, v)
		}
	case op < 56: // WriteBytes across pages
		n := 1 + rng.Intn(2*PageSize)
		b := make([]byte, n)
		rng.Read(b)
		e1 := m.WriteBytes(addr, b)
		e2 := r.writeN(addr, b, false)
		checkErrAgree(t, step, "WriteBytes", e1, e2)
		return fmt.Sprintf("WriteBytes(%#x, %d bytes)", addr, n)
	case op < 64: // WriteRaw (ignores perms; used for fault injection)
		n := 1 + rng.Intn(64)
		b := make([]byte, n)
		rng.Read(b)
		e1 := m.WriteRaw(addr, b)
		e2 := r.writeN(addr, b, true)
		checkErrAgree(t, step, "WriteRaw", e1, e2)
		return fmt.Sprintf("WriteRaw(%#x, %d bytes)", addr, n)
	case op < 74: // Read and compare
		v1, e1 := m.Read8(addr)
		v2, e2 := r.read8(addr)
		checkErrAgree(t, step, "Read8", e1, e2)
		if e1 == nil && v1 != v2 {
			t.Fatalf("step %d: Read8(%#x): fast=%#x ref=%#x", step, addr, v1, v2)
		}
		return fmt.Sprintf("Read8(%#x)", addr)
	case op < 80: // TakeSnapshot
		*snaps = append(*snaps, m.TakeSnapshot())
		*refSnaps = append(*refSnaps, r.snapshot())
		return "TakeSnapshot"
	case op < 86: // TakeDeltaSnapshot over a random earlier snapshot
		if len(*snaps) == 0 {
			return "TakeDeltaSnapshot(skipped: none)"
		}
		i := rng.Intn(len(*snaps))
		*snaps = append(*snaps, m.TakeDeltaSnapshot((*snaps)[i]))
		*refSnaps = append(*refSnaps, r.snapshot())
		return fmt.Sprintf("TakeDeltaSnapshot(over snapshot %d of %d)", i, len(*snaps)-1)
	case op < 90: // read a random snapshot without restoring it
		if len(*snaps) == 0 {
			return "ReadSnapshot(skipped: none)"
		}
		i := rng.Intn(len(*snaps))
		compareSnapshot(t, step, (*snaps)[i], (*refSnaps)[i], addr)
		return fmt.Sprintf("ReadSnapshot(%d of %d, %#x)", i, len(*snaps), addr)
	default: // Restore a random (often stale) snapshot
		if len(*snaps) == 0 {
			return "Restore(skipped: none)"
		}
		i := rng.Intn(len(*snaps))
		m.Restore((*snaps)[i])
		r.restore((*refSnaps)[i])
		compareState(t, step, m, r)
		return fmt.Sprintf("Restore(snapshot %d of %d)", i, len(*snaps))
	}
}

// compareSnapshot asserts that reading snapshot s through RawPage and
// PermAt agrees with the reference copy on every page of the fuzz
// window, mapped or not, and through ReadRaw at addr.
func compareSnapshot(t *testing.T, step int, s *Snapshot, ref refSnap, addr uint32) {
	t.Helper()
	for pn := uint32(0x10); pn < 0x10+8+2; pn++ {
		rp, mapped := ref[pn]
		if got := s.RawPage(pn); !bytes.Equal(got, rp.data) || (got == nil) == mapped {
			t.Fatalf("step %d: snapshot page %#x: RawPage differs (mapped in ref: %v)", step, pn, mapped)
		}
		if got := s.PermAt(pn << pageShift); got != rp.perm {
			t.Fatalf("step %d: snapshot page %#x: PermAt %v, ref %v", step, pn, got, rp.perm)
		}
	}
	const n = 64
	got, err := s.ReadRaw(addr, n)
	want := make([]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		p, ok := ref[(addr+i)>>pageShift]
		if !ok {
			want = nil
			break
		}
		want = append(want, p.data[(addr+i)&(PageSize-1)])
	}
	if (err == nil) != (want != nil) || !bytes.Equal(got, want) {
		t.Fatalf("step %d: snapshot ReadRaw(%#x, %d): err %v, differs from ref", step, addr, n, err)
	}
}

func checkErrAgree(t *testing.T, step int, op string, fast, ref error) {
	t.Helper()
	if (fast == nil) != (ref == nil) {
		t.Fatalf("step %d: %s: fast err=%v, ref err=%v", step, op, fast, ref)
	}
}

func runDifferential(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	m := New()
	r := newRefMem()

	// Seed both with a few mapped pages so early ops have targets.
	m.Map(0x10000, 4*PageSize, PermRW)
	r.mapRange(0x10000, 4*PageSize, PermRW)

	var snaps []*Snapshot
	var refSnaps []refSnap
	var trace []string
	for i := 0; i < steps; i++ {
		desc := fuzzStep(t, rng, m, r, &snaps, &refSnaps, i)
		trace = append(trace, desc)
		if t.Failed() {
			tail := trace
			if len(tail) > 20 {
				tail = tail[len(tail)-20:]
			}
			t.Fatalf("seed %d failed; last ops: %v", seed, tail)
		}
	}
	compareState(t, steps, m, r)
}

func TestDifferentialRestoreOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runDifferential(t, seed, 600)
		})
	}
}

// FuzzRestoreDifferential drives the same oracle from go's fuzzer, so
// `go test -fuzz=FuzzRestoreDifferential ./internal/mem` explores seeds
// beyond the fixed set above.
func FuzzRestoreDifferential(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runDifferential(t, seed, 300)
	})
}
