// Package fleet turns the single-campaign process-isolation layer
// (internal/supervisor) into a multi-pool execution plane for a
// campaign-manager daemon (cmd/kampaignd). A pool is one supervised
// set of worker subprocesses with its own policy knobs — heartbeat
// deadline, restart budget, circuit breaker, chaos injection — and a
// fleet is several pools draining one durable shard queue
// (internal/queue) into one shared result sink.
//
// Failure containment is hierarchical, mirroring the paper's
// controller-watches-machine design one level up:
//
//	worker dies   -> its pool's supervisor restarts it (backoff,
//	                 breaker, budget — the PR-3 policies, now per pool)
//	pool dies     -> the fleet releases its leased shard back to the
//	                 queue; surviving pools take the work over
//	all pools die -> the campaign fails loudly; the queue and journal
//	                 on disk resume it on the next daemon start
//
// Write ordering is the crash-consistency contract: a shard's results
// are flushed to the durable sink BEFORE the queue's done mark is
// written. A crash between the two re-dispatches the shard; resumed
// dispatch skips every ordinal already accounted, so nothing is lost
// and nothing is run twice into the merged set.
package fleet

import (
	"errors"
	"fmt"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/supervisor"
	"repro/internal/wire"
)

// Sink is the durable result sink a fleet merges into. It is
// core.ResultSink plus the explicit flush the shard-completion
// ordering needs; journal.Writer is the canonical implementation.
type Sink interface {
	core.ResultSink
	Flush() error
}

// dedupSink wraps the campaign Sink shared by every pool with atomic
// check-and-append dedup keyed on the fleet's accounted-ordinal map.
// A partition or lease reclaim can re-execute a shard on a second pool
// while the first pool's late writes are still racing in; exactly one
// write per ordinal lands in the merged journal. An ordinal is marked
// accounted only AFTER its append succeeded — the reverse order could
// lose the ordinal forever if the write failed after the claim.
type dedupSink struct {
	sink   Sink
	f      *Fleet
	onDone func(campaign string, ordinal int, quarantined bool)
	mu     sync.Mutex
}

func (d *dedupSink) BeginCampaign(c inject.Campaign, total int) error {
	return d.sink.BeginCampaign(c, total)
}

func (d *dedupSink) Flush() error { return d.sink.Flush() }

func (d *dedupSink) Put(c inject.Campaign, worker, ordinal, total int, res inject.Result) error {
	key := analysis.CampaignKey(c)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f.alreadyDone(key, ordinal) {
		d.f.cfg.Metrics.DupOrdinalsDropped.Add(1)
		return nil
	}
	if err := d.sink.Put(c, worker, ordinal, total, res); err != nil {
		return err
	}
	d.f.markDone(key, ordinal)
	if d.onDone != nil {
		d.onDone(key, ordinal, false)
	}
	return nil
}

func (d *dedupSink) Quarantine(c inject.Campaign, worker, ordinal int, hf inject.HarnessFault) error {
	key := analysis.CampaignKey(c)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f.alreadyDone(key, ordinal) {
		d.f.cfg.Metrics.DupOrdinalsDropped.Add(1)
		return nil
	}
	if err := d.sink.Quarantine(c, worker, ordinal, hf); err != nil {
		return err
	}
	d.f.markDone(key, ordinal)
	if d.onDone != nil {
		d.onDone(key, ordinal, true)
	}
	return nil
}

// PoolConfig describes one worker pool and its supervision policy.
type PoolConfig struct {
	// Name identifies the pool in leases, status and logs.
	Name string
	// Workers is the pool's worker-subprocess count (dispatch
	// concurrency inside a shard).
	Workers int
	// Command launches one worker subprocess for this pool.
	Command func() *exec.Cmd

	// Supervision policy (zero values take the supervisor defaults).
	HeartbeatTimeout time.Duration
	BootTimeout      time.Duration
	BreakerThreshold int
	MaxRestarts      int

	// Hub, when set, makes this a REMOTE pool: instead of spawning
	// subprocesses via Command, the pool claims TCP workers that
	// connected to the hub (kinject -connect). All supervision policies
	// above apply unchanged; dial failures (no worker joined within
	// JoinWait) are charged to MaxRestarts, so a pool whose remote
	// workers all vanished eventually dies and the campaign degrades
	// onto the surviving pools.
	Hub *Hub
	// JoinWait bounds one remote dial's wait for a joinable worker
	// (default DefaultJoinWait). Remote pools only.
	JoinWait time.Duration

	// Chaos injection (tests and the CI fleet job).
	ChaosKillRate float64
	ChaosSeed     int64
	// ChaosDieAfterRuns, when > 0, hard-kills the whole pool after
	// that many completed runs — the fault injector for the
	// pool-death-mid-campaign path. The pool's leased shard is
	// released and survivors take it over.
	ChaosDieAfterRuns int
}

// Config describes a fleet.
type Config struct {
	// Spec is the study shipped to every worker of every pool.
	Spec wire.StudySpec
	// GoldenFP/GoldenDisk/Totals are the manager's reference oracle;
	// every pool cross-validates every worker against them.
	GoldenFP   string
	GoldenDisk string
	Totals     map[string]int
	// Pools is the fleet layout; at least one.
	Pools []PoolConfig
	// Metrics receives fleet and supervisor counters (New substitutes a
	// private one when unset).
	Metrics *obs.Metrics
}

// RunOptions parameterizes one campaign execution on the fleet.
type RunOptions struct {
	// Sink receives every result and quarantine; Flush is forced
	// before each shard's durable done mark.
	Sink Sink
	// Done maps campaign key -> ordinal -> already accounted (journaled
	// result or quarantine from a previous run); those ordinals are
	// skipped. The fleet copies the map; the caller's is not mutated.
	Done map[string]map[int]bool
	// OnOrdinalDone, when set, is called after each newly accounted
	// ordinal (result sunk or target quarantined) — the live-progress
	// feed. Called from pool goroutines; must be safe for concurrent
	// use.
	OnOrdinalDone func(campaign string, ordinal int, quarantined bool)
}

// PoolStatus is one pool's live state for the status API.
type PoolStatus struct {
	Name  string
	Alive bool
	Runs  int64  // completed dispatches (results + quarantines)
	Err   string `json:",omitempty"` // death reason, when dead
}

// remote is the slice of supervisor.Supervisor a pool drives; a seam
// for fleet tests to substitute scripted executors.
type remote interface {
	core.Remote
	Close()
}

// newRemote boots the supervisor for one pool (test seam). A pool
// with a Hub dials claimed TCP workers; otherwise it spawns
// subprocesses via Command.
var newRemote = func(cfg Config, pc PoolConfig) remote {
	var dial func() (supervisor.Link, error)
	command := pc.Command
	if pc.Hub != nil {
		dial = pc.Hub.dialFunc(pc, cfg.Metrics)
		command = nil
	}
	return supervisor.New(supervisor.Config{
		Command:          command,
		Dial:             dial,
		Workers:          pc.Workers,
		Spec:             cfg.Spec,
		GoldenFP:         cfg.GoldenFP,
		GoldenDisk:       cfg.GoldenDisk,
		Totals:           cfg.Totals,
		HeartbeatTimeout: pc.HeartbeatTimeout,
		BootTimeout:      pc.BootTimeout,
		BreakerThreshold: pc.BreakerThreshold,
		MaxRestarts:      pc.MaxRestarts,
		ChaosKillRate:    pc.ChaosKillRate,
		ChaosSeed:        pc.ChaosSeed,
		Metrics:          cfg.Metrics,
	})
}

// Fleet executes campaigns across worker pools.
type Fleet struct {
	cfg Config

	mu    sync.Mutex
	done  map[string]map[int]bool
	pools []*pool
}

type pool struct {
	cfg   PoolConfig
	index int
	rem   remote
	runs  atomic.Int64
	died  atomic.Bool
	err   error // set before died, read after
	// chaosArmed latches the deliberate pool kill so it fires once.
	chaosArmed atomic.Bool
}

// New prepares a fleet (pools boot lazily when Run dispatches).
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Pools) == 0 {
		return nil, errors.New("fleet: no pools configured")
	}
	for i := range cfg.Pools {
		if cfg.Pools[i].Name == "" {
			cfg.Pools[i].Name = fmt.Sprintf("pool%d", i)
		}
		if cfg.Pools[i].Workers < 1 {
			cfg.Pools[i].Workers = 1
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New(1)
	}
	return &Fleet{cfg: cfg}, nil
}

// Run drains the queue across every pool and blocks until the
// campaign is complete or unrecoverable. It returns nil when every
// shard is durably done — even if some pools died along the way — and
// an error when no pool survived or the queue's durability failed.
func (f *Fleet) Run(q *queue.Queue, opts RunOptions) error {
	f.mu.Lock()
	f.done = make(map[string]map[int]bool, len(opts.Done))
	for key, m := range opts.Done {
		cp := make(map[int]bool, len(m))
		for ord := range m {
			cp[ord] = true
		}
		f.done[key] = cp
	}
	f.pools = make([]*pool, len(f.cfg.Pools))
	for i := range f.cfg.Pools {
		f.pools[i] = &pool{cfg: f.cfg.Pools[i], index: i, rem: newRemote(f.cfg, f.cfg.Pools[i])}
	}
	pools := f.pools
	f.mu.Unlock()

	// All pools write through one dedup sink: check-and-append is
	// atomic, so a shard re-executed after a partition or lease reclaim
	// can neither duplicate an ordinal in the merged journal nor lose
	// one (an ordinal is marked accounted only after its append
	// succeeded).
	sink := &dedupSink{sink: opts.Sink, f: f, onDone: opts.OnOrdinalDone}

	var wg sync.WaitGroup
	for _, p := range pools {
		wg.Add(1)
		go func(p *pool) {
			defer wg.Done()
			defer p.rem.Close()
			f.poolLoop(p, q, sink)
		}(p)
	}
	wg.Wait()

	if err := q.Err(); err != nil {
		return fmt.Errorf("fleet: queue durability failure: %w", err)
	}
	if q.Done() {
		return nil
	}
	// Shards remain but every pool has exited: no survivors.
	var first error
	for _, p := range pools {
		if p.err != nil {
			first = p.err
			break
		}
	}
	if first == nil {
		first = errors.New("fleet: queue not drained")
	}
	return fmt.Errorf("fleet: campaign failed, no surviving pools: %w", first)
}

// poolLoop is one pool's life: lease a shard, execute it, mark it
// done, repeat until the queue drains or the pool dies.
func (f *Fleet) poolLoop(p *pool, q *queue.Queue, sink *dedupSink) {
	for {
		shard, ok := q.Acquire(p.cfg.Name)
		if !ok {
			return
		}
		// Renew the lease as ordinals complete: a pool making progress
		// keeps its shard; one that wedges or partitions away stops
		// renewing and the queue reclaims the lease for the survivors.
		renew := func() { q.Renew(shard.ID, p.cfg.Name) }
		if err := f.runShard(p, shard, sink, renew); err != nil {
			// Pool death: break the lease so survivors take the shard,
			// and stop consuming — this pool's supervisor is broken.
			p.err = err
			p.died.Store(true)
			q.Release(shard.ID, p.cfg.Name)
			f.cfg.Metrics.PoolDeaths.Add(1)
			if p.cfg.Hub != nil {
				// A lost remote pool is the graceful-degradation path:
				// the queue drains on the surviving pools.
				f.cfg.Metrics.Degradations.Add(1)
			}
			return
		}
		// Results first, durably; only then the shard's done mark.
		// The reverse order would let a crash between the two writes
		// mark work done whose results never reached disk.
		if err := sink.Flush(); err != nil {
			p.err = fmt.Errorf("fleet: %s: flush before done mark: %w", p.cfg.Name, err)
			p.died.Store(true)
			q.Release(shard.ID, p.cfg.Name)
			return
		}
		if err := q.Complete(shard.ID); err != nil {
			p.err = err
			p.died.Store(true)
			return
		}
		f.cfg.Metrics.ShardsCompleted.Add(1)
	}
}

// runShard executes one shard's ordinals on the pool, skipping those
// already accounted, with the pool's worker count as dispatch
// concurrency. A non-nil error means the pool is no longer usable.
func (f *Fleet) runShard(p *pool, shard queue.Shard, sink *dedupSink, renew func()) error {
	c, ok := analysis.CampaignFromKey(shard.Campaign)
	if !ok {
		return fmt.Errorf("fleet: unknown campaign key %q", shard.Campaign)
	}
	return core.Dispatch(shard.End-shard.Start, p.cfg.Workers, nil, func(_, k int) error {
		ord := shard.Start + k
		if f.alreadyDone(shard.Campaign, ord) {
			return nil
		}
		res, hf, err := core.RunRemote(p.rem, f.cfg.Metrics, p.index, shard.Campaign, ord)
		if err != nil {
			return err
		}
		p.runs.Add(1)
		if hf != nil {
			err = sink.Quarantine(c, p.index, ord, *hf)
		} else {
			err = sink.Put(c, p.index, ord, f.cfg.Totals[shard.Campaign], res)
		}
		if err != nil {
			return err
		}
		renew()
		f.maybeChaosPoolKill(p)
		return nil
	})
}

// maybeChaosPoolKill closes the pool's supervisor once the configured
// run count is reached — the deliberate pool-death injector. The next
// Do on the closed supervisor fails, which routes the pool through the
// normal death path (lease released, survivors take over).
func (f *Fleet) maybeChaosPoolKill(p *pool) {
	if p.cfg.ChaosDieAfterRuns <= 0 {
		return
	}
	if p.runs.Load() >= int64(p.cfg.ChaosDieAfterRuns) && p.chaosArmed.CompareAndSwap(false, true) {
		p.rem.Close()
	}
}

func (f *Fleet) alreadyDone(campaign string, ord int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done[campaign][ord]
}

func (f *Fleet) markDone(campaign string, ord int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done[campaign] == nil {
		f.done[campaign] = make(map[int]bool)
	}
	f.done[campaign][ord] = true
}

// Status reports every pool's live state (empty before Run).
func (f *Fleet) Status() []PoolStatus {
	f.mu.Lock()
	pools := f.pools
	f.mu.Unlock()
	out := make([]PoolStatus, 0, len(pools))
	for _, p := range pools {
		st := PoolStatus{Name: p.cfg.Name, Alive: !p.died.Load(), Runs: p.runs.Load()}
		if p.died.Load() && p.err != nil {
			st.Err = p.err.Error()
		}
		out = append(out, st)
	}
	return out
}
