// Package mem provides the paged 32-bit physical/virtual memory used by
// the simulated CPU. Pages carry read/write/execute permissions; access
// violations and accesses to unmapped pages surface as *Fault errors,
// which the CPU turns into page-fault exceptions exactly as the MMU
// would.
//
// The package also supports cheap snapshot/restore: the injection harness
// resets the machine to a pristine state between experiments (the paper
// rebooted the physical machine instead). Snapshots are generation-tagged
// and copy-on-write: TakeSnapshot shares the current pages read-only
// instead of deep-copying them, so many snapshots (the pristine boot
// image plus per-target checkpoints) coexist cheaply. A delta snapshot
// (TakeDeltaSnapshot) goes further: it stores only the pages that
// changed since a base snapshot and reads every other page through it.
// Restoring the most recent snapshot costs one page-table repoint per
// page touched since it was taken; restoring an older ("stale")
// snapshot walks the snapshot parent chain and is exactly as correct,
// just proportional to all pages touched since the two histories
// diverged.
//
// The per-access hot path goes through a small software TLB: a
// direct-mapped cache of recent page translations, kept per access kind
// so a hit also proves the permission check. Every mutation of the page
// tables (Map, Unmap, Protect, Restore, TakeSnapshot) drops all cached
// translations in O(1) by bumping a generation counter.
package mem

import (
	"fmt"
	"maps"
)

// PageSize is the page size in bytes (matching IA-32 4 KiB paging).
const PageSize = 4096

const pageShift = 12

// Software-TLB geometry: direct-mapped, tlbSize entries per access
// kind, indexed by the low bits of the page number.
const (
	tlbBits = 6
	tlbSize = 1 << tlbBits
	tlbMask = tlbSize - 1
)

// Perm is a page permission bit set.
type Perm uint8

// Page permissions.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// PermRW and PermRX are the common permission combinations.
const (
	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

// Access describes the kind of memory access that faulted.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota + 1
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "access?"
}

// Fault is a memory access fault; the CPU converts it into a page-fault
// exception carrying the faulting address.
type Fault struct {
	Addr       uint32
	Access     Access
	NotPresent bool // true: page not mapped; false: permission violation
}

func (f *Fault) Error() string {
	kind := "protection violation"
	if f.NotPresent {
		kind = "page not present"
	}
	return fmt.Sprintf("mem: %s fault at 0x%08x (%s)", f.Access, f.Addr, kind)
}

type page struct {
	perm Perm
	// dirty means the page is recorded in Memory.dirty: its content,
	// permissions or existence may differ from the last snapshot.
	dirty bool
	// shared means the page is owned by one or more snapshots and is
	// immutable: any mutation (write, raw write, reprotect) must first
	// replace it with a private copy. A shared page is never dirty.
	shared bool
	data   []byte
}

// tlbEntry caches one page translation. An entry is valid when its gen
// matches Memory.tlbGen and its pn matches the page number of the
// access; the per-kind placement means validity also proves the
// permission check for that access kind.
type tlbEntry struct {
	pn  uint32
	gen uint32
	p   *page
}

// Memory is a sparse paged address space.
type Memory struct {
	pages map[uint32]*page

	// dirty records the page numbers whose content, permissions or
	// existence may differ from the last snapshot. Pages still mapped
	// carry a mirror flag (page.dirty) so the per-write hot path skips
	// the map insert after the first write to a page.
	dirty map[uint32]struct{}

	// codeGen increments whenever executable bytes may have changed:
	// writes to pages with execute permission (raw or ordinary),
	// mapping/permission changes involving executable pages, and
	// restores that roll back such changes. Ordinary data writes cannot
	// touch executable pages (they are mapped R+X), so instruction-
	// decode caches remain valid while codeGen is unchanged — in
	// particular across a snapshot/restore cycle that dirtied only data
	// pages.
	codeGen uint64
	// codeDirty records that executable content changed since the last
	// snapshot or restore, so the next Restore (which rolls the change
	// back) must bump codeGen once more.
	codeDirty bool

	// codePageGen records, per page, the codeGen value at which that
	// page's executable content last changed (see CodePageGen). It lets
	// a consumer that caches decoded code per page — the CPU's
	// superblock cache — revalidate after a codeGen bump instead of
	// discarding everything: an injection run that flips one bit in one
	// text page moves codeGen twice (flip + restore) but only that one
	// page's entry here, so decoded blocks on every other page survive
	// the whole run.
	codePageGen map[uint32]uint64
	// codeDirtyPages mirrors codeDirty at page granularity: the exec
	// pages changed since the last snapshot boundary, i.e. exactly the
	// pages whose executable content the next Restore rolls back.
	codeDirtyPages map[uint32]struct{}
	// codeAllGen is a floor for CodePageGen: restores whose page-level
	// history is unknown (rebuildFrom) raise it to invalidate every
	// page at once.
	codeAllGen uint64

	// tlb is the software TLB, one direct-mapped way per access kind
	// (AccessRead/AccessWrite/AccessExec). tlbGen validates entries;
	// flushTLB invalidates everything by bumping it.
	tlb    [3][tlbSize]tlbEntry
	tlbGen uint32

	// base is the snapshot the dirty set is relative to (the most
	// recently taken or restored snapshot), nil before the first
	// TakeSnapshot. snapGen numbers snapshots in creation order.
	base    *Snapshot
	snapGen uint64

	// watch, when set, observes every access overlapping
	// [watchAddr, watchAddr+watchLen) (see SetWatch); watchPN is the
	// page holding that range, which is never cached in the TLB while
	// the watch is set.
	watch     func(addr, n uint32, acc Access)
	watchAddr uint32
	watchLen  uint32
	watchPN   uint32
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{
		pages:          make(map[uint32]*page),
		dirty:          make(map[uint32]struct{}),
		codePageGen:    make(map[uint32]uint64),
		codeDirtyPages: make(map[uint32]struct{}),
		tlbGen:         1, // zero-valued TLB entries must never validate
	}
}

// flushTLB drops every cached translation in O(1).
func (m *Memory) flushTLB() {
	m.tlbGen++
	if m.tlbGen == 0 {
		// Generation wrapped: stale entries from generation 0 (the
		// zero value) must not validate, so erase them the slow way.
		m.tlb = [3][tlbSize]tlbEntry{}
		m.tlbGen = 1
	}
}

// noteCodeChange records a change to executable content on page pn:
// decode caches become stale now (codeGen) and again when Restore
// rolls the change back (codeDirty / codeDirtyPages).
func (m *Memory) noteCodeChange(pn uint32) {
	m.codeGen++
	m.codeDirty = true
	m.codePageGen[pn] = m.codeGen
	m.codeDirtyPages[pn] = struct{}{}
}

// Map creates pages covering [addr, addr+size) with the given
// permissions. Both addr and size are rounded outward to page
// boundaries. Existing pages in the range are replaced with zeroed
// pages.
func (m *Memory) Map(addr, size uint32, perm Perm) {
	first := addr >> pageShift
	last := (addr + size - 1) >> pageShift
	for pn := first; pn <= last; pn++ {
		oldExec := false
		if old, ok := m.pages[pn]; ok {
			oldExec = old.perm&PermExec != 0
		}
		if oldExec || perm&PermExec != 0 {
			m.noteCodeChange(pn)
		}
		m.pages[pn] = &page{perm: perm, dirty: true, data: make([]byte, PageSize)}
		m.dirty[pn] = struct{}{}
	}
	m.flushTLB()
}

// Unmap removes pages covering [addr, addr+size).
func (m *Memory) Unmap(addr, size uint32) {
	first := addr >> pageShift
	last := (addr + size - 1) >> pageShift
	for pn := first; pn <= last; pn++ {
		if p, ok := m.pages[pn]; ok {
			if p.perm&PermExec != 0 {
				m.noteCodeChange(pn)
			}
			delete(m.pages, pn)
			m.dirty[pn] = struct{}{}
		}
	}
	m.flushTLB()
}

// Protect changes the permissions of already-mapped pages in the range.
// Unmapped pages in the range are skipped; pages that already carry the
// requested permissions are left untouched (no dirtying, no cache
// invalidation).
func (m *Memory) Protect(addr, size uint32, perm Perm) {
	first := addr >> pageShift
	last := (addr + size - 1) >> pageShift
	changed := false
	for pn := first; pn <= last; pn++ {
		p, ok := m.pages[pn]
		if !ok || p.perm == perm {
			continue
		}
		if (p.perm|perm)&PermExec != 0 {
			m.noteCodeChange(pn)
		}
		if p.shared {
			p = m.clonePage(pn, p)
		}
		p.perm = perm
		p.dirty = true
		m.dirty[pn] = struct{}{}
		changed = true
	}
	if changed {
		m.flushTLB()
	}
}

// IsMapped reports whether the page containing addr is mapped.
func (m *Memory) IsMapped(addr uint32) bool {
	_, ok := m.pages[addr>>pageShift]
	return ok
}

// PermAt returns the permissions of the page containing addr (0 if
// unmapped).
func (m *Memory) PermAt(addr uint32) Perm {
	if p, ok := m.pages[addr>>pageShift]; ok {
		return p.perm
	}
	return 0
}

// pageFor is the TLB-miss path: the page-table walk, the permission
// check, and the TLB fill. [lo, lo+n) is the range the access covers
// (it may start on the previous page for a straddling write), reported
// to the watch when it overlaps the watched range.
func (m *Memory) pageFor(addr uint32, acc Access, lo, n uint32) (*page, error) {
	pn := addr >> pageShift
	p, ok := m.pages[pn]
	if !ok {
		return nil, &Fault{Addr: addr, Access: acc, NotPresent: true}
	}
	var need Perm
	switch acc {
	case AccessRead:
		need = PermRead
	case AccessWrite:
		need = PermWrite
	case AccessExec:
		need = PermExec
	}
	if p.perm&need == 0 {
		return nil, &Fault{Addr: addr, Access: acc}
	}
	if p.shared && acc == AccessWrite {
		// Copy-on-write: snapshot-owned pages are immutable. The write
		// TLB way therefore only ever holds private pages.
		p = m.clonePage(pn, p)
	}
	if m.watch != nil && pn == m.watchPN {
		// Never cached: every access to the page comes back here.
		m.observe(lo, n, acc)
		return p, nil
	}
	e := &m.tlb[acc-1][pn&tlbMask]
	e.pn, e.gen, e.p = pn, m.tlbGen, p
	return p, nil
}

// clonePage replaces a snapshot-owned page with a private copy so it
// can be mutated, and repoints any live TLB entries at the new copy
// (all three ways may cache the old pointer for reads/fetches).
func (m *Memory) clonePage(pn uint32, p *page) *page {
	np := &page{perm: p.perm, data: make([]byte, PageSize)}
	copy(np.data, p.data)
	m.pages[pn] = np
	for k := range m.tlb {
		e := &m.tlb[k][pn&tlbMask]
		if e.gen == m.tlbGen && e.pn == pn {
			e.p = np
		}
	}
	return np
}

// lookup translates addr for the given access kind, hitting the TLB
// when possible; lo and n are as for pageFor.
func (m *Memory) lookup(addr uint32, acc Access, lo, n uint32) (*page, error) {
	pn := addr >> pageShift
	e := &m.tlb[acc-1][pn&tlbMask]
	if e.gen == m.tlbGen && e.pn == pn {
		return e.p, nil
	}
	return m.pageFor(addr, acc, lo, n)
}

// SetWatch makes fn observe every access that overlaps [addr, addr+n):
// CPU-visible reads, writes and fetches as well as the raw host-side
// accessors. The range must lie within one page. fn receives the
// whole access range, is called before the access takes effect, and
// must not access memory itself. While the watch is set its page
// bypasses the TLB, so every access to it takes the slow path; with no
// watch set, nothing is checked on any hot path.
func (m *Memory) SetWatch(addr, n uint32, fn func(addr, n uint32, acc Access)) {
	m.watch, m.watchAddr, m.watchLen, m.watchPN = fn, addr, n, addr>>pageShift
	m.flushTLB()
}

// ClearWatch removes the watch set by SetWatch.
func (m *Memory) ClearWatch() { m.watch = nil }

// observe reports [lo, lo+n) to the watch when it overlaps the watched
// range.
func (m *Memory) observe(lo, n uint32, acc Access) {
	if uint64(lo) < uint64(m.watchAddr)+uint64(m.watchLen) &&
		uint64(m.watchAddr) < uint64(lo)+uint64(n) {
		m.watch(lo, n, acc)
	}
}

// tlbHit is the inlinable TLB probe for the single-page fast paths:
// way is the constant acc-1 of the access kind, so the two-compare
// hit check inlines into Read32/Write32/Fetch with no call overhead
// (lookup itself is over the inlining budget). nil means miss; the
// caller takes the pageFor slow path.
func (m *Memory) tlbHit(way int, pn uint32) *page {
	e := &m.tlb[way][pn&tlbMask]
	if e.gen == m.tlbGen && e.pn == pn {
		return e.p
	}
	return nil
}

// noteWrite maintains dirty tracking for a write to p. Callers skip it
// on the hot path when the page is already dirty and not executable.
func (m *Memory) noteWrite(pn uint32, p *page) {
	if !p.dirty {
		p.dirty = true
		m.dirty[pn] = struct{}{}
	}
	if p.perm&PermExec != 0 {
		// Executable content changed: every such write must invalidate
		// decode caches, not just the first on the page.
		m.noteCodeChange(pn)
	}
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32) (byte, error) {
	p := m.tlbHit(0, addr>>pageShift)
	if p == nil {
		var err error
		p, err = m.pageFor(addr, AccessRead, addr, 1)
		if err != nil {
			return 0, err
		}
	}
	return p.data[addr&(PageSize-1)], nil
}

// Read16 reads a little-endian 16-bit value.
func (m *Memory) Read16(addr uint32) (uint16, error) {
	off := addr & (PageSize - 1)
	if off <= PageSize-2 {
		p := m.tlbHit(0, addr>>pageShift)
		if p == nil {
			var err error
			p, err = m.pageFor(addr, AccessRead, addr, 2)
			if err != nil {
				return 0, err
			}
		}
		return uint16(p.data[off]) | uint16(p.data[off+1])<<8, nil
	}
	lo, err := m.Read8(addr)
	if err != nil {
		return 0, err
	}
	hi, err := m.Read8(addr + 1)
	if err != nil {
		return 0, err
	}
	return uint16(lo) | uint16(hi)<<8, nil
}

// Read32 reads a little-endian 32-bit value.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	// Fast path: within one page.
	off := addr & (PageSize - 1)
	if off <= PageSize-4 {
		p := m.tlbHit(0, addr>>pageShift)
		if p == nil {
			var err error
			p, err = m.pageFor(addr, AccessRead, addr, 4)
			if err != nil {
				return 0, err
			}
		}
		d := p.data[off : off+4 : off+4]
		return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		b, err := m.Read8(addr + i)
		if err != nil {
			return 0, err
		}
		v |= uint32(b) << (8 * i)
	}
	return v, nil
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v byte) error {
	p := m.tlbHit(1, addr>>pageShift)
	if p == nil {
		var err error
		p, err = m.pageFor(addr, AccessWrite, addr, 1)
		if err != nil {
			return err
		}
	}
	if !p.dirty || p.perm&PermExec != 0 {
		m.noteWrite(addr>>pageShift, p)
	}
	p.data[addr&(PageSize-1)] = v
	return nil
}

// Write16 writes a little-endian 16-bit value. A write that straddles a
// page boundary probes both pages before committing any byte, so a
// fault on the second page leaves memory untouched (faults are
// restartable: architectural state stays that of the instruction
// start).
func (m *Memory) Write16(addr uint32, v uint16) error {
	off := addr & (PageSize - 1)
	if off <= PageSize-2 {
		p := m.tlbHit(1, addr>>pageShift)
		if p == nil {
			var err error
			p, err = m.pageFor(addr, AccessWrite, addr, 2)
			if err != nil {
				return err
			}
		}
		if !p.dirty || p.perm&PermExec != 0 {
			m.noteWrite(addr>>pageShift, p)
		}
		p.data[off] = byte(v)
		p.data[off+1] = byte(v >> 8)
		return nil
	}
	lo, err := m.lookup(addr, AccessWrite, addr, 2)
	if err != nil {
		return err
	}
	hi, err := m.lookup(addr+1, AccessWrite, addr, 2)
	if err != nil {
		return err
	}
	m.noteWrite(addr>>pageShift, lo)
	m.noteWrite((addr+1)>>pageShift, hi)
	lo.data[PageSize-1] = byte(v)
	hi.data[0] = byte(v >> 8)
	return nil
}

// Write32 writes a little-endian 32-bit value, with the same
// fault-atomicity guarantee as Write16 for page-straddling writes.
func (m *Memory) Write32(addr uint32, v uint32) error {
	off := addr & (PageSize - 1)
	if off <= PageSize-4 {
		p := m.tlbHit(1, addr>>pageShift)
		if p == nil {
			var err error
			p, err = m.pageFor(addr, AccessWrite, addr, 4)
			if err != nil {
				return err
			}
		}
		if !p.dirty || p.perm&PermExec != 0 {
			m.noteWrite(addr>>pageShift, p)
		}
		d := p.data[off : off+4 : off+4]
		d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return nil
	}
	// Straddling write: probe both pages before committing any byte.
	lo, err := m.lookup(addr, AccessWrite, addr, 4)
	if err != nil {
		return err
	}
	hi, err := m.lookup(addr+3, AccessWrite, addr, 4)
	if err != nil {
		return err
	}
	m.noteWrite(addr>>pageShift, lo)
	m.noteWrite((addr+3)>>pageShift, hi)
	loPN := addr >> pageShift
	for i := uint32(0); i < 4; i++ {
		a := addr + i
		p := hi
		if a>>pageShift == loPN {
			p = lo
		}
		p.data[a&(PageSize-1)] = byte(v >> (8 * i))
	}
	return nil
}

// Fetch copies up to len(buf) instruction bytes starting at addr into
// buf, requiring execute permission. It returns the number of bytes
// copied; if the first byte faults, it returns the fault. A fault after
// the first byte is not an error here (the decoder reports ErrTruncated
// and the CPU re-faults precisely if the instruction really extends into
// the unfetchable page).
func (m *Memory) Fetch(addr uint32, buf []byte) (int, error) {
	// Fast path: the whole window lies within one page.
	off := addr & (PageSize - 1)
	if int(off)+len(buf) <= PageSize {
		p := m.tlbHit(2, addr>>pageShift)
		if p == nil {
			var err error
			p, err = m.pageFor(addr, AccessExec, addr, uint32(len(buf)))
			if err != nil {
				return 0, err
			}
		}
		return copy(buf, p.data[off:]), nil
	}
	n := 0
	for n < len(buf) {
		a := addr + uint32(n)
		p, err := m.lookup(a, AccessExec, a, uint32(len(buf)-n))
		if err != nil {
			if n == 0 {
				return 0, err
			}
			return n, nil
		}
		o := a & (PageSize - 1)
		c := copy(buf[n:], p.data[o:])
		n += c
	}
	return n, nil
}

// ReadSpan returns the backing bytes for [addr, addr+n) when the whole
// range lies within one readable page. It has no side effects: nil
// means the caller must take the per-access path (a fault, or a range
// that straddles a page). The slice aliases page storage and is only
// valid until the next write, snapshot or restore.
func (m *Memory) ReadSpan(addr, n uint32) []byte {
	off := addr & (PageSize - 1)
	if off+n > PageSize {
		return nil
	}
	p, err := m.lookup(addr, AccessRead, addr, n)
	if err != nil {
		return nil
	}
	return p.data[off : off+n]
}

// WriteSpan returns writable backing bytes for [addr, addr+n) when the
// range lies within one writable, non-executable page. Copy-on-write
// and dirty tracking behave exactly as per-access writes would;
// executable pages are refused (nil) so code-generation bumps keep
// their per-write granularity on the per-access path. nil otherwise
// means a fault or a page-straddling range.
func (m *Memory) WriteSpan(addr, n uint32) []byte {
	off := addr & (PageSize - 1)
	if off+n > PageSize {
		return nil
	}
	p, err := m.lookup(addr, AccessWrite, addr, n)
	if err != nil {
		return nil
	}
	if p.perm&PermExec != 0 {
		return nil
	}
	if !p.dirty {
		m.noteWrite(addr>>pageShift, p)
	}
	return p.data[off : off+n]
}

// ReadBytes copies size bytes at addr into a new slice (read access
// checked per page).
func (m *Memory) ReadBytes(addr, size uint32) ([]byte, error) {
	out := make([]byte, size)
	for i := uint32(0); i < size; {
		p, err := m.lookup(addr+i, AccessRead, addr+i, size-i)
		if err != nil {
			return nil, err
		}
		off := (addr + i) & (PageSize - 1)
		c := copy(out[i:], p.data[off:])
		i += uint32(c)
	}
	return out, nil
}

// WriteBytes copies b to addr (write access checked per page). Every
// page in the range is probed before any byte is written, so a fault
// partway through the range leaves memory untouched.
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	for i := 0; i < len(b); {
		a := addr + uint32(i)
		if _, err := m.lookup(a, AccessWrite, a, uint32(len(b)-i)); err != nil {
			return err
		}
		i += int(PageSize - (a & (PageSize - 1)))
	}
	for i := 0; i < len(b); {
		a := addr + uint32(i)
		p, err := m.lookup(a, AccessWrite, a, uint32(len(b)-i))
		if err != nil {
			return err
		}
		m.noteWrite(a>>pageShift, p)
		off := a & (PageSize - 1)
		c := copy(p.data[off:], b[i:])
		i += c
	}
	return nil
}

// WriteRaw writes ignoring permissions (host-side setup and error
// injection into read-only text). The pages must be mapped; like
// WriteBytes, the whole range is probed before any byte is committed.
func (m *Memory) WriteRaw(addr uint32, b []byte) error {
	for i := 0; i < len(b); {
		a := addr + uint32(i)
		if _, ok := m.pages[a>>pageShift]; !ok {
			return &Fault{Addr: a, Access: AccessWrite, NotPresent: true}
		}
		i += int(PageSize - (a & (PageSize - 1)))
	}
	if m.watch != nil {
		m.observe(addr, uint32(len(b)), AccessWrite)
	}
	for i := 0; i < len(b); {
		a := addr + uint32(i)
		pn := a >> pageShift
		p := m.pages[pn]
		if p.shared {
			p = m.clonePage(pn, p)
		}
		m.noteWrite(pn, p)
		off := a & (PageSize - 1)
		c := copy(p.data[off:], b[i:])
		i += c
	}
	return nil
}

// ReadRaw reads ignoring permissions. The pages must be mapped.
func (m *Memory) ReadRaw(addr, size uint32) ([]byte, error) {
	out := make([]byte, size)
	if err := m.ReadRawInto(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadRawInto is ReadRaw into a caller-owned buffer, for hot paths
// that read large regions (the ramdisk) once per injection run and
// would otherwise pay a fresh multi-megabyte allocation each time.
func (m *Memory) ReadRawInto(addr uint32, out []byte) error {
	if m.watch != nil {
		m.observe(addr, uint32(len(out)), AccessRead)
	}
	return readRaw(func(pn uint32) (*page, bool) { p, ok := m.pages[pn]; return p, ok }, addr, out)
}

// readRaw copies the content at addr of the pages page looks up into
// out, ignoring permissions.
func readRaw(page func(pn uint32) (*page, bool), addr uint32, out []byte) error {
	for i := 0; i < len(out); {
		a := addr + uint32(i)
		p, ok := page(a >> pageShift)
		if !ok {
			return &Fault{Addr: a, Access: AccessRead, NotPresent: true}
		}
		off := a & (PageSize - 1)
		c := copy(out[i:], p.data[off:])
		i += c
	}
	return nil
}

// Snapshot is a point-in-time image of the address space. It shares
// page objects with the Memory it was taken from (copy-on-write: any
// later mutation clones the page first), so holding many snapshots —
// the pristine boot image plus per-target checkpoints — costs one page
// table per snapshot, not one copy of RAM.
//
// Snapshots form a chain: each records its parent (the snapshot that
// was current when it was taken, or a delta's base) and the set of
// pages that changed since that parent. Restore uses the chain to
// restore *any* snapshot correctly; restoring the most recent one is
// the fast path.
type Snapshot struct {
	// pages holds every mapped page, or for a delta snapshot only the
	// mapped pages of sinceParent: a delta reads every other page
	// through its parent.
	pages map[uint32]*page
	delta bool

	// gen is the creation-order generation tag (1 for the first
	// snapshot of a Memory). It identifies snapshots in tests and
	// diagnostics; staleness itself is detected structurally.
	gen uint64

	// parent is the snapshot that was current when this one was taken
	// (nil for the first). sinceParent holds the page numbers whose
	// content, permissions or existence may differ from parent;
	// codeChangedSinceParent records whether any of those changes
	// involved executable content, and codePagesSinceParent which pages
	// they touched (for per-page decode-cache invalidation on restore).
	parent                 *Snapshot
	sinceParent            map[uint32]struct{}
	codeChangedSinceParent bool
	codePagesSinceParent   map[uint32]struct{}
}

// Gen returns the snapshot's generation tag (creation order, starting
// at 1 for each Memory).
func (s *Snapshot) Gen() uint64 { return s.gen }

// Parent returns the snapshot s's recorded changes are relative to: the
// base of a delta snapshot, or the snapshot that was current when a
// full one was taken (nil for the first).
func (s *Snapshot) Parent() *Snapshot { return s.parent }

// ReadRaw returns size bytes at addr as they were when s was taken:
// what Memory.ReadRaw returns right after restoring s.
func (s *Snapshot) ReadRaw(addr, size uint32) ([]byte, error) {
	out := make([]byte, size)
	if err := readRaw(s.page, addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RawPage returns the bytes of page pn as they were when s was taken,
// or nil if the page was unmapped. Snapshot pages are never written in
// place, so the slice stays valid; callers must treat it as read-only.
func (s *Snapshot) RawPage(pn uint32) []byte {
	if p, ok := s.page(pn); ok {
		return p.data
	}
	return nil
}

// PermAt returns the permissions of addr's page as they were when s was
// taken (0 when the page was unmapped).
func (s *Snapshot) PermAt(addr uint32) Perm {
	if p, ok := s.page(addr >> pageShift); ok {
		return p.perm
	}
	return 0
}

// page returns page pn as it was when s was taken; ok is false when it
// was unmapped. A delta snapshot answers a page outside its changed set
// from its parent.
func (s *Snapshot) page(pn uint32) (*page, bool) {
	for s.delta {
		if _, changed := s.sinceParent[pn]; changed {
			break
		}
		s = s.parent
	}
	p, ok := s.pages[pn]
	return p, ok
}

// allPages returns a page table holding every page of s.
func (s *Snapshot) allPages() map[uint32]*page {
	if !s.delta {
		return maps.Clone(s.pages)
	}
	pages := s.parent.allPages()
	for pn := range s.sinceParent {
		if p, ok := s.pages[pn]; ok {
			pages[pn] = p
		} else {
			delete(pages, pn)
		}
	}
	return pages
}

// TakeSnapshot captures the current state and resets dirty tracking.
// No page data is copied: the live pages are marked shared (immutable)
// and later writes clone on demand, so the call is O(mapped pages)
// pointer work regardless of RAM size.
func (m *Memory) TakeSnapshot() *Snapshot {
	pages := make(map[uint32]*page, len(m.pages))
	for pn, p := range m.pages {
		p.shared = true
		p.dirty = false
		pages[pn] = p
	}
	m.snapGen++
	s := &Snapshot{
		pages:                  pages,
		gen:                    m.snapGen,
		parent:                 m.base,
		sinceParent:            m.dirty,
		codeChangedSinceParent: m.codeDirty,
		codePagesSinceParent:   m.codeDirtyPages,
	}
	m.dirty = make(map[uint32]struct{})
	m.codeDirty = false
	m.codeDirtyPages = make(map[uint32]struct{})
	m.base = s
	m.flushTLB()
	return s
}

// TakeDeltaSnapshot captures the current state like TakeSnapshot, but
// as a delta over base: it stores only the pages that may differ from
// base (PagesChangedSince) and reads every other page through base,
// which becomes its parent. It marks only those pages shared (every
// other page already is), so it costs O(changed pages) instead of
// O(mapped pages), and a chain of deltas over one base stays one link
// deep. When base's history does not connect to the current state it
// falls back to TakeSnapshot.
func (m *Memory) TakeDeltaSnapshot(base *Snapshot) *Snapshot {
	diff, code, codePages, ok := m.diffSince(base)
	if !ok {
		return m.TakeSnapshot()
	}
	pages := make(map[uint32]*page, len(diff))
	for pn := range diff {
		if p, ok := m.pages[pn]; ok {
			p.shared = true
			p.dirty = false
			pages[pn] = p
		}
	}
	m.snapGen++
	s := &Snapshot{
		pages:                  pages,
		delta:                  true,
		gen:                    m.snapGen,
		parent:                 base,
		sinceParent:            diff,
		codeChangedSinceParent: code,
		codePagesSinceParent:   codePages,
	}
	clear(m.dirty)
	m.codeDirty = false
	clear(m.codeDirtyPages)
	m.base = s
	m.flushTLB()
	return s
}

// Restore returns the address space to the snapshot state. Restoring
// the most recent snapshot (the common case) costs one page-table
// repoint per page touched since it was taken — including pages
// mapped, unmapped or reprotected. Restoring an older snapshot is just
// as correct: the snapshot chain supplies the full set of pages that
// may differ between the two states, at cost proportional to all pages
// touched since the histories diverged. codeGen only advances when
// executable content actually changed relative to the snapshot, so
// instruction-decode caches survive data-only snapshot/restore cycles.
func (m *Memory) Restore(s *Snapshot) {
	if s != m.base {
		m.restoreStale(s)
		return
	}
	if m.codeDirty {
		m.codeGen++
		m.codeDirty = false
		// The restore rolls back exactly the executable changes made
		// since the snapshot boundary: re-stamp those pages (and only
		// those) at the new generation.
		for pn := range m.codeDirtyPages {
			m.codePageGen[pn] = m.codeGen
		}
		clear(m.codeDirtyPages)
	}
	for pn := range m.dirty {
		if sp, ok := s.page(pn); ok {
			// sp is still shared and clean: repoint, don't copy.
			m.pages[pn] = sp
		} else {
			// Mapped since the snapshot: remove.
			delete(m.pages, pn)
		}
	}
	clear(m.dirty)
	m.flushTLB()
}

// restoreStale restores a snapshot other than the current base. The
// pages that may differ between the current state and s are exactly
// diffSince's; everything outside that set is byte-identical in both
// states and is left alone.
func (m *Memory) restoreStale(s *Snapshot) {
	diff, codeChanged, codePages, ok := m.diffSince(s)
	if !ok {
		// The snapshot's history is disconnected from this Memory's
		// (e.g. it predates everything we have records for). Fall back
		// to a full structural rebuild — always correct.
		m.rebuildFrom(s)
		return
	}
	for pn := range diff {
		if sp, ok := s.page(pn); ok {
			m.pages[pn] = sp
		} else {
			delete(m.pages, pn)
		}
	}
	if codeChanged {
		m.codeGen++
		for pn := range codePages {
			m.codePageGen[pn] = m.codeGen
		}
	}
	m.codeDirty = false
	clear(m.codeDirtyPages)
	m.base = s
	clear(m.dirty)
	m.flushTLB()
}

// diffSince returns the pages whose content, permissions or existence
// may differ between the current state and snapshot s: the pages
// dirtied since the current base, plus every sinceParent set along both
// chains from base and from s down to their lowest common ancestor. It
// also reports whether any of those changes involved executable content
// and which pages they touched. ok is false when s's history does not
// connect to this Memory's.
func (m *Memory) diffSince(s *Snapshot) (diff map[uint32]struct{}, code bool, codePages map[uint32]struct{}, ok bool) {
	diff = maps.Clone(m.dirty)
	code, codePages = m.codeDirty, maps.Clone(m.codeDirtyPages)
	add := func(a *Snapshot) {
		for pn := range a.sinceParent {
			diff[pn] = struct{}{}
		}
		code = code || a.codeChangedSinceParent
		for pn := range a.codePagesSinceParent {
			codePages[pn] = struct{}{}
		}
	}
	if s == m.base {
		return diff, code, codePages, true
	}
	anc := make(map[*Snapshot]bool)
	for a := s; a != nil; a = a.parent {
		anc[a] = true
	}
	for a := m.base; a != nil; a = a.parent {
		if anc[a] {
			for b := s; b != a; b = b.parent {
				add(b)
			}
			return diff, code, codePages, true
		}
		add(a)
	}
	return nil, false, nil, false
}

// PagesChangedSince returns the set of page numbers whose content,
// permissions or existence may differ between the current state and
// snapshot s — a conservative superset, computed from the same dirty
// sets and snapshot-chain deltas that restoreStale walks, without
// touching any page data. ok is false when s's history does not
// connect to this Memory's (the caller must assume everything
// changed). Incremental consumers — the injection runner's disk-state
// comparison — use it to look at only the pages a run touched instead
// of re-reading multi-megabyte regions every run.
func (m *Memory) PagesChangedSince(s *Snapshot) (map[uint32]struct{}, bool) {
	diff, _, _, ok := m.diffSince(s)
	return diff, ok
}

// DirtyCount returns the number of pages whose content, permissions or
// existence may differ from the most recent snapshot: the size of the
// set PagesChangedSince reports for it, without building that set.
func (m *Memory) DirtyCount() int { return len(m.dirty) }

// RawPage returns the backing bytes of page pn ignoring permissions,
// or nil if the page is unmapped. The slice aliases live page storage:
// callers must treat it as read-only and must not hold it across
// writes, snapshots or restores.
func (m *Memory) RawPage(pn uint32) []byte {
	if m.watch != nil {
		m.observe(pn<<pageShift, PageSize, AccessRead)
	}
	if p, ok := m.pages[pn]; ok {
		return p.data
	}
	return nil
}

// rebuildFrom replaces the whole page table with the snapshot's. It is
// the unconditionally-correct fallback for snapshots whose chain does
// not connect to the current base.
func (m *Memory) rebuildFrom(s *Snapshot) {
	m.pages = s.allPages()
	m.dirty = make(map[uint32]struct{})
	m.codeGen++
	// The page-level history does not connect either: invalidate every
	// page's cached decodes by raising the floor.
	m.codeAllGen = m.codeGen
	m.codeDirty = false
	clear(m.codeDirtyPages)
	m.base = s
	m.flushTLB()
}

// PageCount returns the number of mapped pages.
func (m *Memory) PageCount() int { return len(m.pages) }

// CodeGen returns the executable-content generation counter (see the
// Memory doc comment); instruction caches are valid while it is
// unchanged.
func (m *Memory) CodeGen() uint64 { return m.codeGen }

// CodePageGen returns the codeGen value at which the executable
// content of page pn last changed (0 if never). A per-page decode
// cache entry built when CodeGen() was g is still valid — even after
// later CodeGen bumps — as long as CodePageGen(pn) <= g for every page
// it decodes from: the bumps happened on other pages.
func (m *Memory) CodePageGen(pn uint32) uint64 {
	g := m.codePageGen[pn]
	if g < m.codeAllGen {
		g = m.codeAllGen
	}
	return g
}
