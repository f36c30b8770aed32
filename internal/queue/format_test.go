package queue

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/frame"
	"repro/internal/inject"
	"repro/internal/wire"
)

// fixtureSpec is the spec testdata/fixture.kq was created with.
func fixtureSpec() wire.StudySpec {
	return wire.StudySpec{Seed: 2003, Scale: 1, Campaigns: "AB", MaxTargetsPerFunc: 2, MaxFuncsPerCampaign: 3,
		MaxRetries: 3, EngineOptions: inject.EngineOptions{NoCheckpoint: true, NoBlocks: true}}
}

// testdata/fixture.kq was written by the queue that predates package
// frame: pool p0 leased and completed shard 0, then p1 leased shard 1
// and the queue was closed. It must keep reading exactly as it did.
func TestFixtureQueueReads(t *testing.T) {
	var got []string
	if _, err := frame.Scan("testdata/fixture.kq", magic, func(_ int, p []byte) error {
		var rec record
		if err := frame.DecodeRecord(p, &rec); err != nil {
			return err
		}
		got = append(got, fmt.Sprintf("%s shard=%d pool=%q", rec.Kind, rec.Shard, rec.Pool))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{`header shard=0 pool=""`, `lease shard=0 pool="p0"`, `done shard=0 pool=""`, `lease shard=1 pool="p1"`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fixture records %q, want %q", got, want)
	}

	path := filepath.Join(t.TempDir(), "q")
	data, err := os.ReadFile("testdata/fixture.kq")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Open validates the stored spec and shard plan against these.
	q, err := Open(path, fixtureSpec(), testShards())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if st := q.Stats(); st != (Stats{Pending: 4, Done: 1, Total: 5}) {
		t.Fatalf("reopened fixture: %+v", st)
	}
	if s, ok := q.Acquire("p2"); !ok || s.ID != 1 {
		t.Fatalf("first shard after reopen: %v, %v; want shard 1", s, ok)
	}
}

func FuzzQueueOpen(f *testing.F) {
	fixture, err := os.ReadFile("testdata/fixture.kq")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "q")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if q, err := Open(path, fixtureSpec(), testShards()); err == nil {
			q.Close()
		}
	})
}
