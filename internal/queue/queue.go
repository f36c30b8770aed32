// Package queue is the durable work queue of a campaign-manager
// daemon (cmd/kampaignd): the study's target space is cut into shards
// — contiguous ordinal ranges of one campaign — and each shard moves
// through pending → leased → done, with the transitions that must
// survive a crash journaled to disk.
//
// On disk a queue is the magic "kqwq1" followed by internal/frame
// frames of gzip-JSON records, like the result journal: the parent
// directory is fsync'd after create, and every appended frame is
// fsync'd before the operation is acknowledged. On reopen, a torn tail
// (crash mid-append) is truncated and recovered; a corrupt frame is
// refused with a *CorruptError naming the frame and offset.
//
// Crash semantics:
//
//   - Shard definitions are derived deterministically from the study
//     spec and written once at create; reopen cross-validates them
//     against the caller's re-derivation (a spec drift between daemon
//     versions must fail loudly, not dispatch wrong ordinal ranges).
//   - A lease is journaled for observability (which pool held the
//     shard when the daemon died) but never survives a restart: a
//     crashed daemon's leases are all broken by definition, so leased
//     shards reopen as pending.
//   - Within one daemon life, a lease can carry a deadline
//     (SetLeaseTimeout): a pool that stops renewing — wedged, or on
//     the far side of a network partition — has its shard reclaimed by
//     the next Acquire instead of holding it hostage until restart.
//     Lease deadlines are in-memory only; they need no new record
//     kind because no lease survives a reopen anyway.
//   - A done mark is journaled with fsync. The caller must flush the
//     result sink before marking a shard done — the done mark is the
//     queue's promise that every result of the shard is durable, and
//     writing it before the results would lose ordinals on a crash.
//     (internal/fleet owns that ordering.)
package queue

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/wire"
)

const magic = "kqwq1\n"

// Version is the queue file format version.
const Version = 1

// CorruptError reports a corrupt queue frame: the file must be
// inspected, not resumed.
type CorruptError = frame.CorruptError

// Shard is one work unit: a contiguous ordinal range [Start, End) of
// one campaign's deterministic target list.
type Shard struct {
	ID       int
	Campaign string
	Start    int
	End      int
}

func (s Shard) String() string {
	return fmt.Sprintf("shard %d (%s %d..%d)", s.ID, s.Campaign, s.Start, s.End-1)
}

// Shards cuts campaign target totals into shards of at most shardSize
// ordinals, in campaign-key order. The enumeration is deterministic:
// manager restarts and cross-validating reopens re-derive the same
// list from the same totals.
func Shards(totals map[string]int, shardSize int) []Shard {
	if shardSize < 1 {
		shardSize = 1
	}
	keys := make([]string, 0, len(totals))
	for key := range totals {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var out []Shard
	id := 0
	for _, key := range keys {
		total := totals[key]
		for start := 0; start < total; start += shardSize {
			end := start + shardSize
			if end > total {
				end = total
			}
			out = append(out, Shard{ID: id, Campaign: key, Start: start, End: end})
			id++
		}
	}
	return out
}

// record is the on-disk union of queue record kinds.
type record struct {
	Kind    string          `json:"kind"`
	Version int             `json:"version,omitempty"`
	Spec    *wire.StudySpec `json:"spec,omitempty"`
	Shards  []Shard         `json:"shards,omitempty"`
	Shard   int             `json:"shard,omitempty"`
	Pool    string          `json:"pool,omitempty"`
}

const (
	kindHeader = "header"
	kindLease  = "lease"
	kindDone   = "done"
)

type shardState int

const (
	statePending shardState = iota
	stateLeased
	stateDone
)

// Queue is a durable shard queue. Acquire/Release/Renew/Complete are
// safe for concurrent use by pool goroutines.
type Queue struct {
	// Metrics receives a LeaseReclaims count for every stale lease
	// broken live. Create and Open start it with a private one; replace
	// it before pools start acquiring.
	Metrics *obs.Metrics

	mu        sync.Mutex
	cond      *sync.Cond
	f         *os.File
	path      string
	shards    []Shard
	state     []shardState
	lessee    []string // pool name per leased shard (observability)
	leaseExp  []time.Time
	leaseTTL  time.Duration
	reclaimed int
	done      int
	closed    bool
	failed    error
}

// Stats is a point-in-time census of the queue.
type Stats struct {
	Pending, Leased, Done, Total int
	// Reclaimed counts stale leases broken live (lease deadline
	// expired with the lessee making no progress).
	Reclaimed int `json:",omitempty"`
}

// Create starts a new queue at path, durably writing the header (spec
// + shard definitions) before returning.
func Create(path string, spec wire.StudySpec, shards []Shard) (*Queue, error) {
	f, err := frame.Create(path, magic, &record{Kind: kindHeader, Version: Version, Spec: &spec, Shards: shards})
	if err != nil {
		return nil, fmt.Errorf("queue: create: %w", err)
	}
	return newQueue(f, path, shards, nil), nil
}

// Open resumes an existing queue: the intact record prefix is read,
// a torn tail is truncated, done marks are restored, and every leased
// shard reverts to pending (a reopened queue means the previous
// process died, so its leases are broken by definition). The stored
// spec and shard definitions are cross-validated against the caller's
// re-derivation; any drift is fatal — dispatching ordinal ranges that
// no longer mean the same targets would merge incomparable results.
func Open(path string, spec wire.StudySpec, shards []Shard) (*Queue, error) {
	stored, doneIDs, end, err := scan(path)
	if err != nil {
		return nil, err
	}
	if err := validate(path, stored, spec, shards); err != nil {
		return nil, err
	}
	f, err := frame.Reopen(path, end)
	if err != nil {
		return nil, fmt.Errorf("queue: reopen: %w", err)
	}
	return newQueue(f, path, shards, doneIDs), nil
}

func newQueue(f *os.File, path string, shards []Shard, doneIDs map[int]bool) *Queue {
	q := &Queue{
		Metrics:  obs.New(1),
		f:        f,
		path:     path,
		shards:   shards,
		state:    make([]shardState, len(shards)),
		lessee:   make([]string, len(shards)),
		leaseExp: make([]time.Time, len(shards)),
	}
	q.cond = sync.NewCond(&q.mu)
	for id := range doneIDs {
		if id >= 0 && id < len(q.state) {
			q.state[id] = stateDone
			q.done++
		}
	}
	return q
}

// validate cross-checks the stored header against the re-derivation.
func validate(path string, stored *record, spec wire.StudySpec, shards []Shard) error {
	if stored.Version != Version {
		return fmt.Errorf("queue: %s: format version %d, want %d", path, stored.Version, Version)
	}
	if stored.Spec == nil || *stored.Spec != spec {
		return fmt.Errorf("queue: %s: stored study spec differs from the submitted one (refusing to dispatch a drifted target list)", path)
	}
	if len(stored.Shards) != len(shards) {
		return fmt.Errorf("queue: %s: stored %d shards, re-derived %d (diverged shard plan)", path, len(stored.Shards), len(shards))
	}
	for i := range shards {
		if stored.Shards[i] != shards[i] {
			return fmt.Errorf("queue: %s: shard %d stored as %v, re-derived %v (diverged shard plan)", path, i, stored.Shards[i], shards[i])
		}
	}
	return nil
}

// scan reads the intact record prefix.
func scan(path string) (header *record, doneIDs map[int]bool, end int64, err error) {
	doneIDs = make(map[int]bool)
	ext, err := frame.Scan(path, magic, func(i int, payload []byte) error {
		var rec record
		if err := frame.DecodeRecord(payload, &rec); err != nil {
			return err
		}
		switch {
		case i == 0 && rec.Kind != kindHeader:
			return errors.New("missing header record")
		case i == 0:
			header = &rec
		case rec.Kind == kindDone:
			doneIDs[rec.Shard] = true
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return header, doneIDs, ext.End, nil
}

// appendLocked journals one record with fsync; the operation is not
// acknowledged until the frame is durable.
func (q *Queue) appendLocked(rec *record) error {
	buf, err := frame.AppendRecord(nil, rec)
	if err != nil {
		return fmt.Errorf("queue: %w", err)
	}
	if _, err := q.f.Write(buf); err != nil {
		return fmt.Errorf("queue: append: %w", err)
	}
	if err := q.f.Sync(); err != nil {
		return fmt.Errorf("queue: sync: %w", err)
	}
	return nil
}

// SetLeaseTimeout arms per-lease deadlines: a lease not renewed
// within d is considered abandoned (wedged or partitioned pool) and is
// reclaimed by the next Acquire. 0 (the default) disables live
// reclaim — leases then break only on reopen, the pre-deadline
// behavior. Call before pools start acquiring.
func (q *Queue) SetLeaseTimeout(d time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.leaseTTL = d
	q.cond.Broadcast()
}

// leaseLocked journals and hands out a lease on shard index i.
func (q *Queue) leaseLocked(i int, pool string) (Shard, bool) {
	q.state[i] = stateLeased
	q.lessee[i] = pool
	if q.leaseTTL > 0 {
		q.leaseExp[i] = time.Now().Add(q.leaseTTL)
	} else {
		q.leaseExp[i] = time.Time{}
	}
	// The lease record is observability, not correctness:
	// an append failure here must not wedge dispatch.
	if err := q.appendLocked(&record{Kind: kindLease, Shard: q.shards[i].ID, Pool: pool}); err != nil {
		q.failLocked(err)
		return Shard{}, false
	}
	return q.shards[i], true
}

// Acquire leases the next pending shard for the named pool, reclaiming
// a lease whose deadline expired when nothing is pending. It blocks
// while no shard is available but leased shards remain (another pool
// may die and release them, or a lease may expire). It returns
// ok == false when every shard is done or the queue is closed/failed —
// the pool's signal to drain.
func (q *Queue) Acquire(pool string) (Shard, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed || q.failed != nil || q.done == len(q.shards) {
			return Shard{}, false
		}
		for i := range q.shards {
			if q.state[i] == statePending {
				return q.leaseLocked(i, pool)
			}
		}
		// Nothing pending: a lease whose deadline passed belongs to a
		// pool that stopped making progress — take the shard over. The
		// previous lessee may still finish its copy; the merged sink's
		// ordinal dedup makes that race harmless.
		if q.leaseTTL > 0 {
			now := time.Now()
			for i := range q.shards {
				if q.state[i] == stateLeased && !q.leaseExp[i].IsZero() && now.After(q.leaseExp[i]) {
					q.reclaimed++
					q.Metrics.LeaseReclaims.Add(1)
					return q.leaseLocked(i, pool)
				}
			}
		}
		// Wake ourselves when the earliest live lease would expire, so
		// a reclaim does not wait for an unrelated Broadcast.
		var wakeup *time.Timer
		if exp, ok := q.earliestExpiryLocked(); ok {
			wakeup = time.AfterFunc(time.Until(exp)+time.Millisecond, q.cond.Broadcast)
		}
		q.cond.Wait()
		if wakeup != nil {
			wakeup.Stop()
		}
	}
}

// earliestExpiryLocked returns the soonest live lease deadline.
func (q *Queue) earliestExpiryLocked() (time.Time, bool) {
	var exp time.Time
	for i := range q.shards {
		if q.state[i] == stateLeased && !q.leaseExp[i].IsZero() {
			if exp.IsZero() || q.leaseExp[i].Before(exp) {
				exp = q.leaseExp[i]
			}
		}
	}
	return exp, !exp.IsZero()
}

// Release breaks a lease (the pool died mid-shard); the shard returns
// to pending and a blocked Acquire is woken to claim it. The pool must
// still be the lessee: a release racing a deadline reclaim must not
// break the lease the reclaiming pool now holds.
func (q *Queue) Release(id int, pool string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if id >= 0 && id < len(q.state) && q.state[id] == stateLeased && q.lessee[id] == pool {
		q.state[id] = statePending
		q.lessee[id] = ""
		q.leaseExp[id] = time.Time{}
		q.cond.Broadcast()
	}
}

// Renew extends the named pool's lease deadline — called as the pool
// makes progress through the shard. A renewal after the lease was
// reclaimed (or released) is a no-op: the shard belongs to someone
// else now.
func (q *Queue) Renew(id int, pool string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if id >= 0 && id < len(q.state) && q.state[id] == stateLeased && q.lessee[id] == pool && q.leaseTTL > 0 {
		q.leaseExp[id] = time.Now().Add(q.leaseTTL)
	}
}

// Complete durably marks a shard done. The caller must have flushed
// every result of the shard to its durable sink first — the done mark
// asserts the shard will never be dispatched again.
func (q *Queue) Complete(id int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if id < 0 || id >= len(q.state) {
		return fmt.Errorf("queue: complete: no shard %d", id)
	}
	if q.state[id] == stateDone {
		return nil
	}
	if err := q.appendLocked(&record{Kind: kindDone, Shard: id}); err != nil {
		q.failLocked(err)
		return err
	}
	q.state[id] = stateDone
	q.lessee[id] = ""
	q.leaseExp[id] = time.Time{}
	q.done++
	if q.done == len(q.shards) {
		q.cond.Broadcast()
	}
	return nil
}

// failLocked poisons the queue: a durability failure means no further
// acknowledgment can be trusted, so every waiter drains.
func (q *Queue) failLocked(err error) {
	if q.failed == nil {
		q.failed = err
	}
	q.cond.Broadcast()
}

// Err reports the sticky durability failure, if any.
func (q *Queue) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.failed
}

// Done reports whether every shard is durably complete.
func (q *Queue) Done() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.done == len(q.shards)
}

// Stats returns a point-in-time census.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := Stats{Total: len(q.shards), Done: q.done, Reclaimed: q.reclaimed}
	for i := range q.state {
		switch q.state[i] {
		case statePending:
			s.Pending++
		case stateLeased:
			s.Leased++
		}
	}
	return s
}

// Close wakes every blocked Acquire and closes the file. Safe to call
// more than once.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	q.cond.Broadcast()
	return q.f.Close()
}
