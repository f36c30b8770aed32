package journal

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/inject"
	"repro/internal/obs"
)

// writeTestJournal produces a cleanly closed journal with nResults
// results and one quarantine, returning its path.
func writeTestJournal(t *testing.T, dir string, nResults int) string {
	t.Helper()
	path := filepath.Join(dir, "j")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	w.FlushEvery = 2
	if err := w.BeginCampaign(inject.CampaignC, nResults+1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nResults; i++ {
		if err := w.Put(inject.CampaignC, 0, i, nResults+1, mkResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	hf := inject.HarnessFault{Kind: inject.FaultPanic, Msg: "poison"}
	if err := w.Quarantine(inject.CampaignC, 0, nResults, hf); err != nil {
		t.Fatal(err)
	}
	trailer := obs.New(1).Snapshot()
	if err := w.Close(&trailer); err != nil {
		t.Fatal(err)
	}
	return path
}

// frameOffsets walks a v3 journal and returns the file offset of each
// frame's length prefix (independent re-implementation, so the test
// does not trust scan to locate its own corruption).
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:len(magic)]) != magic {
		t.Fatalf("not a v3 journal")
	}
	var offs []int64
	pos := int64(len(magic))
	for pos < int64(len(data)) {
		offs = append(offs, pos)
		n := int64(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4 + n + 4
	}
	if pos != int64(len(data)) {
		t.Fatalf("frame walk overran the file: %d != %d", pos, len(data))
	}
	return offs
}

// A bit flip inside a fully present mid-file frame must be reported as
// corruption with the exact frame index and offset — and OpenAppend
// must refuse to resume over it.
func TestCorruptMidFileFrame(t *testing.T) {
	path := writeTestJournal(t, t.TempDir(), 6)
	offs := frameOffsets(t, path)
	if len(offs) < 4 {
		t.Fatalf("only %d frames", len(offs))
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit in frame 2 (a result frame, well before EOF).
	data := append([]byte(nil), pristine...)
	data[offs[2]+5] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j, rerr := Read(path)
	var ce *CorruptError
	if !errors.As(rerr, &ce) {
		t.Fatalf("Read: got %v, want *CorruptError", rerr)
	}
	if ce.Frame != 2 || ce.Offset != offs[2] {
		t.Fatalf("corruption located at frame %d offset %d, want frame 2 offset %d", ce.Frame, ce.Offset, offs[2])
	}
	if j == nil || j.Frames != 2 {
		t.Fatalf("intact prefix: %+v", j)
	}
	if _, _, err := OpenAppend(path); err == nil {
		t.Fatal("OpenAppend resumed over mid-file corruption")
	}

	rep, err := Verify(path)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Corrupt == nil || rep.Corrupt.Frame != 2 || rep.Complete {
		t.Fatalf("verify report: %+v", rep)
	}
}

// Random single-bit flips anywhere in the file must never yield a
// silently wrong journal: every outcome is an error (corruption or an
// unrecognizable file) or a flagged torn tail whose content is a
// prefix of the original.
func TestRandomBitFlipNeverSilentlyWrong(t *testing.T) {
	dir := t.TempDir()
	path := writeTestJournal(t, dir, 8)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	origDone := orig.Completed()["C"]

	rng := rand.New(rand.NewSource(2003))
	flipped := filepath.Join(dir, "flipped")
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), pristine...)
		off := rng.Intn(len(data))
		data[off] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(flipped, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rerr := Read(flipped)
		if rerr != nil {
			var ce *CorruptError
			if errors.As(rerr, &ce) {
				if ce.Offset < int64(len(magic)) || ce.Offset >= int64(len(data)) {
					t.Fatalf("trial %d (off %d): corrupt offset %d out of range", trial, off, ce.Offset)
				}
			}
			continue // reported, not silent
		}
		// No error: the flip must have been absorbed as a flagged torn
		// tail (e.g. a length prefix now pointing past EOF), and the
		// decoded content must be a prefix of the original.
		if !j.Truncated {
			t.Fatalf("trial %d (off %d): flip accepted with no error and no truncation flag", trial, off)
		}
		for _, e := range j.Entries["C"] {
			want, ok := origDone[e.Ordinal]
			if !ok || !reflect.DeepEqual(want, e.Result) {
				t.Fatalf("trial %d (off %d): recovered entry %d differs from the original", trial, off, e.Ordinal)
			}
		}
	}
}

// A torn tail (the crash signature) stays recoverable in the v3
// format: Read flags it, Verify calls it out without an error, and
// OpenAppend truncates and resumes.
func TestVerifyTornTail(t *testing.T) {
	path := writeTestJournal(t, t.TempDir(), 6)
	offs := frameOffsets(t, path)
	last := offs[len(offs)-1]
	if err := os.Truncate(path, last+3); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(path)
	if err != nil {
		t.Fatalf("Verify on torn tail: %v", err)
	}
	if !rep.Truncated || rep.Corrupt != nil {
		t.Fatalf("verify report: %+v", rep)
	}
	if rep.Frames != len(offs)-1 {
		t.Fatalf("frames = %d, want %d", rep.Frames, len(offs)-1)
	}
	w, j, err := OpenAppend(path)
	if err != nil {
		t.Fatalf("OpenAppend on torn tail: %v", err)
	}
	if !j.Truncated {
		t.Fatal("torn tail not flagged on resume")
	}
	if err := w.Close(nil); err != nil {
		t.Fatal(err)
	}
	if rep2, err := Verify(path); err != nil || rep2.Truncated {
		t.Fatalf("after truncating resume: rep=%+v err=%v", rep2, err)
	}
}

func TestVerifyCleanJournal(t *testing.T) {
	path := writeTestJournal(t, t.TempDir(), 4)
	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || rep.Corrupt != nil || !rep.Complete || !rep.Trailer {
		t.Fatalf("verify report: %+v", rep)
	}
	if rep.Results != 4 || rep.Quarantined != 1 || rep.Campaigns["C"] != 5 {
		t.Fatalf("verify counts: %+v", rep)
	}
}

// New journals are written in the current format and announce it.
func TestNewJournalsUseV3Magic(t *testing.T) {
	path := writeTestJournal(t, t.TempDir(), 1)
	head := make([]byte, len(magic))
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Read(head); err != nil {
		t.Fatal(err)
	}
	if string(head) != magic {
		t.Fatalf("new journal magic %q, want %q", head, magic)
	}
	if _, err := Read(path); err != nil {
		t.Fatal(err)
	}
}
