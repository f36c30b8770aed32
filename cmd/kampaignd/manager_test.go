package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/inject"
	"repro/internal/journal"
	"repro/internal/queue"
	"repro/internal/wire"
)

// A daemon killed inside queue.Create or journal.Create leaves its file
// cut anywhere before the end of the header frame. Such a file was
// never acted on, so a restart must recreate it instead of failing the
// campaign on every restart.
func TestOpenRecreatesFilesTornInsideCreate(t *testing.T) {
	spec, err := normalizeSpec(wire.StudySpec{Campaigns: "AB"})
	if err != nil {
		t.Fatal(err)
	}
	shards := queue.Shards(map[string]int{"A": 3, "B": 2}, 2)
	open := func(c *campaign) (*queue.Queue, *journal.Writer, map[string]map[int]bool) {
		t.Helper()
		q, err := c.openQueue(shards)
		if err != nil {
			t.Fatalf("open queue: %v", err)
		}
		jw, done, err := c.openJournal(q)
		if err != nil {
			q.Close()
			t.Fatalf("open journal: %v", err)
		}
		return q, jw, done
	}

	// A fresh campaign dir holds exactly the magic and header frame of
	// each file.
	freshDir := t.TempDir()
	q, jw, _ := open(newCampaign("c0001", freshDir, spec, 2, poolPlan{}))
	jw.Close(nil)
	q.Close()
	fresh := map[string][]byte{}
	for _, name := range []string{queueFile, journalFile} {
		if fresh[name], err = os.ReadFile(filepath.Join(freshDir, name)); err != nil {
			t.Fatal(err)
		}
	}

	for _, name := range []string{queueFile, journalFile} {
		for cut := 0; cut < len(fresh[name]); cut++ {
			dir := t.TempDir()
			// Create writes the queue first, so a torn queue has no
			// journal beside it; a torn journal sits beside a whole queue.
			if name == journalFile {
				if err := os.WriteFile(filepath.Join(dir, queueFile), fresh[queueFile], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, name), fresh[name][:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			q, jw, done := open(newCampaign("c0001", dir, spec, 2, poolPlan{}))
			if len(done) != 0 || q.Stats().Pending != len(shards) {
				t.Fatalf("%s cut at %d: reopened with done=%v queue=%+v", name, cut, done, q.Stats())
			}
			s, ok := q.Acquire("p0")
			if !ok {
				t.Fatalf("%s cut at %d: no shard to acquire", name, cut)
			}
			if err := jw.Put(inject.CampaignA, 0, s.Start, 3, inject.Result{Campaign: inject.CampaignA}); err != nil {
				t.Fatal(err)
			}
			if err := jw.Close(nil); err != nil {
				t.Fatal(err)
			}
			if err := q.Complete(s.ID); err != nil {
				t.Fatal(err)
			}
			q.Close()

			j, err := journal.Read(filepath.Join(dir, journalFile))
			if err != nil || j.Header.Seed != spec.Seed || j.CompletedCount() != 1 {
				t.Fatalf("%s cut at %d: recreated journal reads back %+v, %v", name, cut, j, err)
			}
			q2, err := queue.Open(filepath.Join(dir, queueFile), spec, shards)
			if err != nil {
				t.Fatalf("%s cut at %d: recreated queue: %v", name, cut, err)
			}
			if st := q2.Stats(); st.Done != 1 {
				t.Fatalf("%s cut at %d: recreated queue lost its done mark: %+v", name, cut, st)
			}
			q2.Close()
		}
	}
}
