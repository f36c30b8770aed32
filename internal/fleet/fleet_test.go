package fleet

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/wire"
)

// stubRemote scripts the supervisor seam: every Do succeeds with a
// canned result unless failAt or hfAt says otherwise, and a closed
// remote fails every subsequent Do (mirroring a closed supervisor).
type stubRemote struct {
	mu     sync.Mutex
	closed bool
	runs   int
	failAt func(campaign string, ord int) error
	hfAt   func(campaign string, ord int) bool
}

func (r *stubRemote) Do(campaign string, ord int) (*inject.Result, *inject.HarnessFault, error) {
	r.mu.Lock()
	closed := r.closed
	r.runs++
	r.mu.Unlock()
	if closed {
		return nil, nil, errors.New("stub: supervisor closed")
	}
	if r.failAt != nil {
		if err := r.failAt(campaign, ord); err != nil {
			return nil, nil, err
		}
	}
	if r.hfAt != nil && r.hfAt(campaign, ord) {
		return nil, &inject.HarnessFault{Kind: inject.FaultPanic, Msg: "stub quarantine"}, nil
	}
	res := inject.Result{Outcome: inject.OutcomeNotActivated}
	return &res, nil, nil
}

func (r *stubRemote) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

// recordSink records every sunk ordinal and counts flushes; FlushErr
// poisons the flush path.
type recordSink struct {
	mu       sync.Mutex
	puts     map[string]map[int]int // campaign -> ordinal -> count
	quars    map[string]map[int]int
	flushes  int
	FlushErr error
}

func newRecordSink() *recordSink {
	return &recordSink{puts: map[string]map[int]int{}, quars: map[string]map[int]int{}}
}

func (s *recordSink) BeginCampaign(c inject.Campaign, total int) error { return nil }

func (s *recordSink) Put(c inject.Campaign, worker, ordinal, total int, res inject.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := fmt.Sprintf("%c", 'A'+int(c)-1)
	if s.puts[key] == nil {
		s.puts[key] = map[int]int{}
	}
	s.puts[key][ordinal]++
	return nil
}

func (s *recordSink) Quarantine(c inject.Campaign, worker, ordinal int, hf inject.HarnessFault) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := fmt.Sprintf("%c", 'A'+int(c)-1)
	if s.quars[key] == nil {
		s.quars[key] = map[int]int{}
	}
	s.quars[key][ordinal]++
	return nil
}

func (s *recordSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushes++
	return s.FlushErr
}

func (s *recordSink) counts(campaign string) (puts, quars int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.puts[campaign]), len(s.quars[campaign])
}

// withStubs routes newRemote to per-pool stubs for the test's duration.
func withStubs(t *testing.T, make func(pc PoolConfig) remote) {
	t.Helper()
	prev := newRemote
	newRemote = func(cfg Config, pc PoolConfig) remote { return make(pc) }
	t.Cleanup(func() { newRemote = prev })
}

func fleetConfig(pools ...PoolConfig) Config {
	return Config{
		Spec:   wire.StudySpec{Seed: 2003, Scale: 1, Campaigns: "AB"},
		Totals: map[string]int{"A": 10, "B": 6},
		Pools:  pools,
	}
}

func newQueue(t *testing.T, totals map[string]int, shardSize int) *queue.Queue {
	t.Helper()
	shards := queue.Shards(totals, shardSize)
	q, err := queue.Create(filepath.Join(t.TempDir(), "q"), wire.StudySpec{Seed: 2003, Scale: 1, Campaigns: "AB"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

func TestFleetDrainsAllShards(t *testing.T) {
	withStubs(t, func(PoolConfig) remote { return &stubRemote{} })
	cfg := fleetConfig(PoolConfig{Name: "a", Workers: 2}, PoolConfig{Name: "b", Workers: 2})
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := newQueue(t, cfg.Totals, 3)
	sink := newRecordSink()
	var mu sync.Mutex
	progress := 0
	err = f.Run(q, RunOptions{Sink: sink, OnOrdinalDone: func(string, int, bool) {
		mu.Lock()
		progress++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !q.Done() {
		t.Fatal("queue not drained")
	}
	for key, total := range cfg.Totals {
		puts, _ := sink.counts(key)
		if puts != total {
			t.Fatalf("campaign %s: %d distinct ordinals sunk, want %d", key, puts, total)
		}
	}
	if progress != 16 {
		t.Fatalf("progress callbacks: %d, want 16", progress)
	}
	for _, st := range f.Status() {
		if !st.Alive {
			t.Fatalf("pool %s reported dead: %s", st.Name, st.Err)
		}
	}
}

func TestPoolDeathRequeuesShardToSurvivor(t *testing.T) {
	// Pool "doomed" fails its very first dispatch; "survivor" must end
	// up executing every ordinal, including the released shard's. The
	// survivor waits for that dispatch, so the doomed pool always gets
	// a shard before the queue drains.
	doomedTried := make(chan struct{})
	var once sync.Once
	withStubs(t, func(pc PoolConfig) remote {
		r := &stubRemote{}
		if pc.Name == "doomed" {
			r.failAt = func(string, int) error {
				once.Do(func() { close(doomedTried) })
				return errors.New("injected pool death")
			}
		} else {
			r.failAt = func(string, int) error {
				<-doomedTried
				return nil
			}
		}
		return r
	})
	cfg := fleetConfig(PoolConfig{Name: "doomed"}, PoolConfig{Name: "survivor"})
	f, _ := New(cfg)
	q := newQueue(t, cfg.Totals, 4)
	sink := newRecordSink()
	if err := f.Run(q, RunOptions{Sink: sink}); err != nil {
		t.Fatalf("campaign must survive a single pool death: %v", err)
	}
	if !q.Done() {
		t.Fatal("queue not drained by survivor")
	}
	for key, total := range cfg.Totals {
		puts, _ := sink.counts(key)
		if puts != total {
			t.Fatalf("campaign %s: %d ordinals, want %d", key, puts, total)
		}
	}
	var dead, alive int
	for _, st := range f.Status() {
		if st.Alive {
			alive++
		} else {
			dead++
			if st.Err == "" {
				t.Fatal("dead pool reports no cause")
			}
		}
	}
	if dead != 1 || alive != 1 {
		t.Fatalf("status: %d dead / %d alive, want 1/1", dead, alive)
	}
}

func TestAllPoolsDeadFailsLoudly(t *testing.T) {
	withStubs(t, func(PoolConfig) remote {
		return &stubRemote{failAt: func(string, int) error { return errors.New("boom") }}
	})
	cfg := fleetConfig(PoolConfig{Name: "only"})
	f, _ := New(cfg)
	q := newQueue(t, cfg.Totals, 4)
	err := f.Run(q, RunOptions{Sink: newRecordSink()})
	if err == nil || !strings.Contains(err.Error(), "no surviving pools") {
		t.Fatalf("want no-surviving-pools error, got %v", err)
	}
	if q.Done() {
		t.Fatal("queue claims done with no work executed")
	}
}

func TestQuarantineRoutedToSink(t *testing.T) {
	withStubs(t, func(PoolConfig) remote {
		return &stubRemote{hfAt: func(campaign string, ord int) bool {
			return campaign == "A" && ord == 3
		}}
	})
	cfg := fleetConfig(PoolConfig{Name: "solo", Workers: 2})
	f, _ := New(cfg)
	q := newQueue(t, cfg.Totals, 4)
	sink := newRecordSink()
	quarSeen := false
	err := f.Run(q, RunOptions{Sink: sink, OnOrdinalDone: func(c string, ord int, quarantined bool) {
		if c == "A" && ord == 3 && quarantined {
			quarSeen = true
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	puts, quars := sink.counts("A")
	if quars != 1 || puts != cfg.Totals["A"]-1 {
		t.Fatalf("campaign A: %d puts / %d quarantines, want %d/1", puts, quars, cfg.Totals["A"]-1)
	}
	if !quarSeen {
		t.Fatal("progress callback never flagged the quarantine")
	}
}

// A failed flush must kill the pool BEFORE any done mark is written:
// reopening the queue afterwards must show zero durable completions.
func TestFlushFailurePreventsDoneMarks(t *testing.T) {
	withStubs(t, func(PoolConfig) remote { return &stubRemote{} })
	cfg := fleetConfig(PoolConfig{Name: "only"})
	f, _ := New(cfg)
	shards := queue.Shards(cfg.Totals, 4)
	path := filepath.Join(t.TempDir(), "q")
	q, err := queue.Create(path, cfg.Spec, shards)
	if err != nil {
		t.Fatal(err)
	}
	sink := newRecordSink()
	sink.FlushErr = errors.New("disk gone")
	if err := f.Run(q, RunOptions{Sink: sink}); err == nil {
		t.Fatal("fleet succeeded with a failing sink flush")
	}
	q.Close()
	q2, err := queue.Open(path, cfg.Spec, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if st := q2.Stats(); st.Done != 0 {
		t.Fatalf("%d shards durably done despite flush failure (done mark outran results)", st.Done)
	}
}

func TestAlreadyDoneOrdinalsSkipped(t *testing.T) {
	var remotes []*stubRemote
	var mu sync.Mutex
	withStubs(t, func(PoolConfig) remote {
		r := &stubRemote{}
		mu.Lock()
		remotes = append(remotes, r)
		mu.Unlock()
		return r
	})
	cfg := fleetConfig(PoolConfig{Name: "only", Workers: 2})
	f, _ := New(cfg)
	q := newQueue(t, cfg.Totals, 4)
	sink := newRecordSink()
	done := map[string]map[int]bool{"A": {0: true, 1: true, 2: true}, "B": {5: true}}
	if err := f.Run(q, RunOptions{Sink: sink, Done: done}); err != nil {
		t.Fatal(err)
	}
	putsA, _ := sink.counts("A")
	putsB, _ := sink.counts("B")
	if putsA != cfg.Totals["A"]-3 || putsB != cfg.Totals["B"]-1 {
		t.Fatalf("skip list ignored: %d A puts (want %d), %d B puts (want %d)",
			putsA, cfg.Totals["A"]-3, putsB, cfg.Totals["B"]-1)
	}
	total := 0
	for _, r := range remotes {
		r.mu.Lock()
		total += r.runs
		r.mu.Unlock()
	}
	if want := cfg.Totals["A"] - 3 + cfg.Totals["B"] - 1; total != want {
		t.Fatalf("%d dispatches executed, want %d (already-done ordinals re-run)", total, want)
	}
}

func TestChaosDieAfterRunsKillsPoolOnce(t *testing.T) {
	// The survivor waits for the mortal pool's third dispatch, the first
	// on its closed supervisor, so the mortal pool always lives long
	// enough to die before the queue drains.
	mortal := &countingRemote{at: 3, reached: make(chan struct{})}
	withStubs(t, func(pc PoolConfig) remote {
		if pc.Name == "mortal" {
			return mortal
		}
		return &stubRemote{failAt: func(string, int) error {
			<-mortal.reached
			return nil
		}}
	})
	cfg := fleetConfig(
		PoolConfig{Name: "mortal", ChaosDieAfterRuns: 2},
		PoolConfig{Name: "survivor"},
	)
	f, _ := New(cfg)
	q := newQueue(t, cfg.Totals, 2)
	sink := newRecordSink()
	if err := f.Run(q, RunOptions{Sink: sink}); err != nil {
		t.Fatalf("campaign must complete on the survivor: %v", err)
	}
	if !q.Done() {
		t.Fatal("queue not drained")
	}
	for key, total := range cfg.Totals {
		puts, _ := sink.counts(key)
		if puts != total {
			t.Fatalf("campaign %s: %d ordinals, want %d", key, puts, total)
		}
	}
	var mortalDead bool
	for _, st := range f.Status() {
		if st.Name == "mortal" && !st.Alive {
			mortalDead = true
		}
	}
	if !mortalDead {
		t.Fatal("chaos-configured pool never died")
	}
}

// countingRemote closes reached when its at-th dispatch begins.
type countingRemote struct {
	stubRemote
	at      int32
	calls   atomic.Int32
	reached chan struct{}
}

func (r *countingRemote) Do(campaign string, ord int) (*inject.Result, *inject.HarnessFault, error) {
	if r.calls.Add(1) == r.at {
		close(r.reached)
	}
	return r.stubRemote.Do(campaign, ord)
}

// blockingRemote wedges the pool's very first dispatch until released
// — the partitioned-pool injector: the pool stops renewing its lease
// while blocked, the queue reclaims the shard, and when the block
// lifts the late duplicate write must be dropped by the merged sink.
type blockingRemote struct {
	stubRemote
	blocked chan struct{} // closed when the block is reached
	release chan struct{}
	once    sync.Once
}

func (r *blockingRemote) Do(campaign string, ord int) (*inject.Result, *inject.HarnessFault, error) {
	r.once.Do(func() {
		close(r.blocked)
		<-r.release
	})
	return r.stubRemote.Do(campaign, ord)
}

// A pool that wedges mid-shard (partition, hang) stops renewing its
// lease; the survivor must reclaim the shard and finish the campaign,
// and when the wedged pool's stalled dispatch finally lands, the
// merged sink must drop the duplicate — every ordinal exactly once.
func TestLeaseReclaimNoDupNoLoss(t *testing.T) {
	wedged := &blockingRemote{
		blocked: make(chan struct{}),
		release: make(chan struct{}),
	}
	withStubs(t, func(pc PoolConfig) remote {
		if pc.Name == "wedged" {
			return wedged
		}
		// Hold the survivor until the wedged pool holds a shard:
		// otherwise it may drain the queue before the wedged pool
		// acquires anything, and no lease is ever reclaimed.
		return &stubRemote{failAt: func(string, int) error {
			<-wedged.blocked
			return nil
		}}
	})
	cfg := fleetConfig(PoolConfig{Name: "wedged"}, PoolConfig{Name: "survivor"})
	cfg.Metrics = obs.New(1)
	f, _ := New(cfg)
	q := newQueue(t, cfg.Totals, 4)
	q.Metrics = cfg.Metrics
	q.SetLeaseTimeout(50 * time.Millisecond)
	sink := newRecordSink()

	// Lift the wedge only after the survivor has drained everything
	// else, so the duplicate is guaranteed to arrive after the
	// reclaimed re-execution already accounted the ordinal.
	go func() {
		<-wedged.blocked
		for {
			st := q.Stats()
			if st.Reclaimed > 0 && st.Done == st.Total {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		close(wedged.release)
	}()

	if err := f.Run(q, RunOptions{Sink: sink}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !q.Done() {
		t.Fatal("queue not drained")
	}
	for key, total := range cfg.Totals {
		puts, _ := sink.counts(key)
		if puts != total {
			t.Fatalf("campaign %s: %d distinct ordinals sunk, want %d (lost ordinals)", key, puts, total)
		}
	}
	sink.mu.Lock()
	for key, m := range sink.puts {
		for ord, n := range m {
			if n != 1 {
				t.Fatalf("campaign %s ordinal %d written %d times (dup past the sink)", key, ord, n)
			}
		}
	}
	sink.mu.Unlock()
	snap := cfg.Metrics.Snapshot()
	if snap.LeaseReclaims < 1 {
		t.Fatalf("LeaseReclaims = %d, want >= 1", snap.LeaseReclaims)
	}
	if snap.DupOrdinalsDropped < 1 {
		t.Fatalf("DupOrdinalsDropped = %d, want >= 1 (the wedged pool's late write)", snap.DupOrdinalsDropped)
	}
}

// Losing a remote pool is the graceful-degradation path: the campaign
// completes on the local survivor and the metric records the event.
func TestRemotePoolDeathCountsDegradation(t *testing.T) {
	// The local pool waits for the remote pool's first run, so the
	// remote pool always gets a shard to die on before the queue drains.
	remoteTried := make(chan struct{})
	var once sync.Once
	withStubs(t, func(pc PoolConfig) remote {
		r := &stubRemote{}
		if pc.Name == "remote" {
			r.failAt = func(string, int) error {
				once.Do(func() { close(remoteTried) })
				return errors.New("all TCP workers gone")
			}
		} else {
			r.failAt = func(string, int) error {
				<-remoteTried
				return nil
			}
		}
		return r
	})
	cfg := fleetConfig(
		PoolConfig{Name: "remote", Hub: &Hub{}},
		PoolConfig{Name: "local"},
	)
	cfg.Metrics = obs.New(1)
	f, _ := New(cfg)
	q := newQueue(t, cfg.Totals, 4)
	sink := newRecordSink()
	if err := f.Run(q, RunOptions{Sink: sink}); err != nil {
		t.Fatalf("campaign must degrade onto the local pool: %v", err)
	}
	for key, total := range cfg.Totals {
		puts, _ := sink.counts(key)
		if puts != total {
			t.Fatalf("campaign %s: %d ordinals, want %d", key, puts, total)
		}
	}
	snap := cfg.Metrics.Snapshot()
	if snap.Degradations != 1 {
		t.Fatalf("Degradations = %d, want 1", snap.Degradations)
	}
}
