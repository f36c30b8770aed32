package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/inject"
	"repro/internal/obs"
)

// testdata/fixture.kjnl was written by the journal writer that predates
// package frame: a header, a campaign, a result, a quarantine, two
// index frames and a trailer. It must keep reading, and resuming,
// exactly as it did.
func TestFixtureJournalReads(t *testing.T) {
	j, err := Read("testdata/fixture.kjnl")
	if err != nil {
		t.Fatal(err)
	}
	want := &Journal{
		Header:  testHeader(),
		Totals:  map[string]int{"C": 3},
		Entries: map[string][]Entry{"C": {{Worker: 1, Ordinal: 0, Result: mkResult(0)}}},
		Quarantine: map[string]map[int]inject.HarnessFault{
			"C": {1: {Kind: inject.FaultPanic, Msg: "poison", Func: "fn_1"}},
		},
		Marks:   []ShardMark{{Shard: 1, Campaign: "C", Ordinal: 1}},
		Trailer: &obs.Snapshot{Counters: obs.Counters[int64]{RunsStarted: 2, RunsCompleted: 1, Quarantined: 1, JournalFlushes: 2}},
		Frames:  7,
	}
	if !reflect.DeepEqual(j, want) {
		t.Fatalf("fixture journal decodes as\n%+v\nwant\n%+v", j, want)
	}

	path := filepath.Join(t.TempDir(), "j")
	data, err := os.ReadFile("testdata/fixture.kjnl")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, _, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(inject.CampaignC, 1, 2, 3, mkResult(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(nil); err != nil {
		t.Fatal(err)
	}
	if j, err := Read(path); err != nil || !j.Complete() || j.CompletedCount() != 2 {
		t.Fatalf("resumed fixture: %+v, %v", j, err)
	}
}

func FuzzJournalRead(f *testing.F) {
	fixture, err := os.ReadFile("testdata/fixture.kjnl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Read(path)
		var ce *CorruptError
		if errors.As(err, &ce) && (ce.Offset < int64(len(magic)) || ce.Offset >= int64(len(data))) {
			t.Fatalf("corrupt frame offset %d lies outside the %d-byte file", ce.Offset, len(data))
		}
		if err != nil {
			return
		}
		// A readable journal reopens, losing at most its torn tail.
		w, _, err := OpenAppend(path)
		if err != nil {
			t.Fatalf("OpenAppend after a clean Read: %v", err)
		}
		if err := w.Close(nil); err != nil {
			t.Fatal(err)
		}
		again, err := Read(path)
		if err != nil {
			t.Fatalf("Read after reopen: %v", err)
		}
		j.Truncated = false
		if !reflect.DeepEqual(again, j) {
			t.Fatalf("reopened journal reads\n%+v\nwant\n%+v", again, j)
		}
	})
}
