package obs

import (
	"encoding/json"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/inject"
)

func TestCountersAndSnapshot(t *testing.T) {
	m := New(2)
	// Freeze the clock so the rate math is checkable.
	base := m.start
	m.now = func() time.Time { return base.Add(2 * time.Second) }

	crash := &inject.Result{Outcome: inject.OutcomeCrash, Activated: true}
	nm := &inject.Result{Outcome: inject.OutcomeNotManifested, Activated: true}
	na := &inject.Result{Outcome: inject.OutcomeNotActivated}

	m.RunsStarted.Add(1)
	m.RunFinished(0, crash, time.Second)
	m.RunsStarted.Add(1)
	m.RunFinished(1, nm, 500*time.Millisecond)
	m.RunsStarted.Add(1)
	m.RunFinished(0, na, 250*time.Millisecond)
	m.Skipped.Add(3)
	m.JournalFlush(100)
	m.JournalFlush(50)

	s := m.Snapshot()
	if s.RunsStarted != 3 || s.RunsCompleted != 3 {
		t.Fatalf("runs = %d/%d", s.RunsStarted, s.RunsCompleted)
	}
	if s.Skipped != 3 || s.Activated != 2 {
		t.Fatalf("skipped=%d activated=%d", s.Skipped, s.Activated)
	}
	if s.Outcomes["crash"] != 1 || s.Outcomes["not manifested"] != 1 || s.Outcomes["not activated"] != 1 {
		t.Fatalf("outcomes = %v", s.Outcomes)
	}
	if s.JournalFlushes != 2 || s.JournalBytes != 150 {
		t.Fatalf("journal = %d/%d", s.JournalFlushes, s.JournalBytes)
	}
	if got := s.RunsPerSec; got < 1.49 || got > 1.51 {
		t.Fatalf("runs/sec = %v", got)
	}
	if got := s.ActivationRate; got < 0.66 || got > 0.67 {
		t.Fatalf("activation rate = %v", got)
	}
	if len(s.Workers) != 2 {
		t.Fatalf("workers = %d", len(s.Workers))
	}
	if s.Workers[0].Runs != 2 || s.Workers[0].Busy != 1250*time.Millisecond {
		t.Fatalf("worker 0 = %+v", s.Workers[0])
	}
	if u := s.Workers[0].Utilization; u < 0.62 || u > 0.63 {
		t.Fatalf("worker 0 utilization = %v", u)
	}

	if line := s.OneLine(); !strings.Contains(line, "runs/s") || !strings.Contains(line, "skipped 3") {
		t.Fatalf("one-line = %q", line)
	}
	block := s.Render()
	for _, want := range []string{"runs completed", "skipped (resumed)", "outcome crash", "worker 1", "journal"} {
		if !strings.Contains(block, want) {
			t.Fatalf("metrics block missing %q:\n%s", want, block)
		}
	}
}

// TestHarnessFaultCounters: the fault-tolerance counters land in the
// snapshot by kind, busy time is still charged to the worker, and the
// rendered forms mention what was recovered and excluded.
func TestHarnessFaultCounters(t *testing.T) {
	m := New(2)
	m.HarnessFault(0, inject.FaultPanic, 100*time.Millisecond)
	m.HarnessFault(1, inject.FaultTimeout, time.Millisecond)
	m.HarnessFault(1, inject.FaultTimeout, time.Millisecond)
	m.HarnessFault(0, inject.FaultKind("weird"), time.Millisecond)
	m.Retries.Add(1)
	m.RunnerReboots.Add(1)
	m.RunnerReboots.Add(1)
	m.Quarantined.Add(1)

	s := m.Snapshot()
	if got := s.HarnessFaultTotal(); got != 4 {
		t.Fatalf("fault total = %d", got)
	}
	if s.HarnessFaults["panic"] != 1 || s.HarnessFaults["timeout"] != 2 || s.HarnessFaults["other"] != 1 {
		t.Fatalf("faults = %v", s.HarnessFaults)
	}
	if _, ok := s.HarnessFaults["host-error"]; ok {
		t.Fatal("zero-count kind kept in snapshot")
	}
	if s.Retries != 1 || s.RunnerReboots != 2 || s.Quarantined != 1 {
		t.Fatalf("retries=%d reboots=%d quarantined=%d", s.Retries, s.RunnerReboots, s.Quarantined)
	}
	if s.Workers[0].Busy != 101*time.Millisecond {
		t.Fatalf("worker 0 busy = %v (fault time not charged)", s.Workers[0].Busy)
	}
	if line := s.OneLine(); !strings.Contains(line, "hfaults 4") || !strings.Contains(line, "quar 1") {
		t.Fatalf("one-line = %q", line)
	}
	block := s.Render()
	for _, want := range []string{"harness faults     4 recovered", "panic 1", "timeout 2",
		"harness retries    1", "runner reboots     2", "quarantined        1 (excluded from analysis)"} {
		if !strings.Contains(block, want) {
			t.Fatalf("metrics block missing %q:\n%s", want, block)
		}
	}

	// worker-death, replay-diverged and arm are declared kinds too:
	// each counts under its own name, not as "other".
	named := New(1)
	for _, k := range []inject.FaultKind{inject.FaultWorkerDeath, inject.FaultReplayDiverged, inject.FaultArm} {
		named.HarnessFault(0, k, time.Millisecond)
	}
	want := map[string]int64{"worker-death": 1, "replay-diverged": 1, "arm": 1}
	if got := named.Snapshot().HarnessFaults; !reflect.DeepEqual(got, want) {
		t.Fatalf("faults = %v, want %v", got, want)
	}

	// A fault-free study keeps the fields out of the trailer JSON.
	clean := New(1).Snapshot()
	if clean.HarnessFaults != nil || clean.Quarantined != 0 {
		t.Fatalf("clean snapshot = %+v", clean)
	}
	if line := clean.OneLine(); strings.Contains(line, "hfaults") || strings.Contains(line, "quar") {
		t.Fatalf("clean one-line = %q", line)
	}
}

// The counters must be safe for concurrent workers (exercised with
// -race in CI).
func TestConcurrentUpdates(t *testing.T) {
	m := New(4)
	var wg sync.WaitGroup
	res := &inject.Result{Outcome: inject.OutcomeHang, Activated: true}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.RunsStarted.Add(1)
				m.RunFinished(w, res, time.Microsecond)
				m.JournalFlush(10)
			}
		}(w)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.RunsCompleted != 400 || s.Outcomes["hang"] != 400 || s.JournalBytes != 4000 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestNewClampsWorkers(t *testing.T) {
	if got := len(New(0).Snapshot().Workers); got != 1 {
		t.Fatalf("workers = %d", got)
	}
}

// TestRegistryPinned sets every counter to a distinct nonzero value
// and checks that Snapshot copies each one, that the snapshot's JSON
// keys are the ones the journal trailer and the kampaignd status have
// always carried, and that Render and OneLine print every line as
// they did when each counter was written out by hand.
func TestRegistryPinned(t *testing.T) {
	counters := []struct {
		key string
		n   int64
	}{
		{"RunsStarted", 40}, {"RunsCompleted", 30}, {"Skipped", 3}, {"Activated", 20},
		{"JournalFlushes", 5}, {"JournalBytes", 3000},
		{"Retries", 6}, {"RunnerReboots", 7}, {"Quarantined", 8},
		{"WorkerRestarts", 9}, {"WorkerKills", 10}, {"BreakerTrips", 11},
		{"FramesRejected", 12}, {"ChaosKills", 13},
		{"ShardsCompleted", 14}, {"PoolDeaths", 15},
		{"RemoteAttaches", 16}, {"RemoteProbeFails", 17}, {"RemoteDialTimeouts", 18},
		{"DeadlineKills", 19}, {"Degradations", 21}, {"LeaseReclaims", 22},
		{"DupOrdinalsDropped", 23},
		{"BlockCacheHits", 900}, {"BlockCacheMisses", 100}, {"BlockFlushes", 24}, {"BlockFallbacks", 25},
	}
	m := New(2)
	base := m.start
	m.now = func() time.Time { return base.Add(2 * time.Second) }
	live := reflect.ValueOf(&m.Counters).Elem()
	if live.NumField() != len(counters) {
		t.Fatalf("Counters has %d fields, want %d", live.NumField(), len(counters))
	}
	for _, c := range counters {
		f := live.FieldByName(c.key)
		if !f.IsValid() {
			t.Fatalf("no counter %s", c.key)
		}
		f.Addr().Interface().(*atomic.Int64).Store(c.n)
	}
	for o := 1; o < len(m.outcomes); o++ {
		m.outcomes[o].Store(int64(o))
	}
	m.workers[0].runs.Store(20)
	m.workers[0].busy.Store(int64(1500 * time.Millisecond))
	m.workers[1].runs.Store(10)
	m.workers[1].busy.Store(int64(500 * time.Millisecond))
	for _, k := range []inject.FaultKind{inject.FaultPanic, inject.FaultTimeout, inject.FaultTimeout,
		inject.FaultHostError, inject.FaultBreakpointIO, "weird"} {
		m.HarnessFault(0, k, 0)
	}
	s := m.Snapshot()

	frozen := reflect.ValueOf(s.Counters)
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range counters {
		if got := frozen.FieldByName(c.key).Int(); got != c.n {
			t.Errorf("Snapshot %s = %d, want %d", c.key, got, c.n)
		}
		if got := string(doc[c.key]); got != strconv.FormatInt(c.n, 10) {
			t.Errorf("JSON %s = %s, want %d", c.key, got, c.n)
		}
	}
	if got, want := jsonKeys(doc), []string{"Activated", "ActivationRate", "BlockCacheHits",
		"BlockCacheMisses", "BlockFallbacks", "BlockFlushes", "BreakerTrips", "ChaosKills",
		"DeadlineKills", "Degradations", "DupOrdinalsDropped", "Elapsed", "FramesRejected",
		"HarnessFaults", "JournalBytes", "JournalFlushes", "LeaseReclaims", "Outcomes",
		"PoolDeaths", "Quarantined", "RemoteAttaches", "RemoteDialTimeouts", "RemoteProbeFails",
		"Retries", "RunnerReboots", "RunsCompleted", "RunsPerSec", "RunsStarted",
		"ShardsCompleted", "Skipped", "WorkerKills", "WorkerRestarts", "Workers"}; !reflect.DeepEqual(got, want) {
		t.Errorf("JSON keys = %q\nwant %q", got, want)
	}
	raw, err = json.Marshal(New(1).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	doc = nil
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if got, want := jsonKeys(doc), []string{"Activated", "ActivationRate", "Elapsed", "JournalBytes",
		"JournalFlushes", "Outcomes", "RunsCompleted", "RunsPerSec", "RunsStarted", "Skipped",
		"Workers"}; !reflect.DeepEqual(got, want) {
		t.Errorf("zero snapshot JSON keys = %q\nwant %q", got, want)
	}

	const render = `metrics:
  elapsed            2s
  runs started       40
  runs completed     30 (15.0/s)
  skipped (resumed)  3
  activated          20 (66.7%)
  outcome crash                  4
  outcome fail silence violation 3
  outcome hang                   5
  outcome not activated          1
  outcome not manifested         2
  worker 0           20 runs, busy 1.5s (75% utilization)
  worker 1           10 runs, busy 500ms (25% utilization)
  harness faults     6 recovered (breakpoint-io 1, host-error 1, other 1, panic 1, timeout 2)
  harness retries    6
  runner reboots     7
  quarantined        8 (excluded from analysis)
  worker restarts    9
  worker kills       10 (heartbeat/boot deadline)
  breaker trips      11 (targets abandoned to quarantine)
  frames rejected    12
  chaos kills        13 (fault-injection test wrapper)
  shards completed   14
  pool deaths        15 (shards requeued to survivors)
  remote attaches    16 (TCP workers vetted onto pools)
  remote probe fails 17 (dead or skewed connections discarded)
  remote dial t/o    18 (no worker joined within the wait)
  deadline kills     19 (peers dead mid-frame)
  degradations       21 (remote pools lost; survivors drained the queue)
  lease reclaims     22 (stale shard leases broken live)
  dup ordinals       23 (re-executed shard results deduplicated)
  block cache        900 hits, 100 misses (90.0% hit rate)
  block flushes      24 (code-page invalidations)
  block fallbacks    25 (single-step dispatches)
  journal            5 flushes, 2.9 KiB
`
	if got := s.Render(); got != render {
		t.Errorf("Render =\n%s\nwant\n%s", got, render)
	}
	const oneLine = "15.0 runs/s, act 67%, skipped 3, 2w util 50%, hfaults 6, quar 8, restarts 9, jrnl 2.9 KiB"
	if got := s.OneLine(); got != oneLine {
		t.Errorf("OneLine = %q, want %q", got, oneLine)
	}
}

func jsonKeys(doc map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
