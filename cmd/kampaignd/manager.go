package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/frame"
	"repro/internal/inject"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/wire"
)

// Campaign lifecycle states.
const (
	stateBooting  = "booting"  // golden reference study building
	stateRunning  = "running"  // fleet draining the shard queue
	stateComplete = "complete" // merged ResultSet published
	stateFailed   = "failed"
)

// On-disk layout of one campaign under the data dir:
//
//	<data>/<id>/spec.json       submitted study (normalized) + shard size
//	<data>/<id>/queue.kq        durable shard queue
//	<data>/<id>/journal.kjnl    merged result journal (all pools)
//	<data>/<id>/results.json.gz published ResultSet (present = complete)
const (
	specFile    = "spec.json"
	queueFile   = "queue.kq"
	journalFile = "journal.kjnl"
	resultsFile = "results.json.gz"
)

// workerCommand launches one worker subprocess; a package variable so
// tests can reroute it at the test binary's helper entrypoint.
var workerCommand = func() *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	return exec.Command(exe, "-worker")
}

// poolPlan is the daemon-level fleet layout every campaign runs on.
type poolPlan struct {
	pools     int
	workers   int // worker subprocesses per pool
	shardSize int

	heartbeat   time.Duration
	boot        time.Duration
	breaker     int
	maxRestarts int

	// Remote TCP pools (claimed from the worker hub) appended after
	// the local subprocess pools.
	hub            *fleet.Hub
	remotePools    int
	remoteWorkers  int
	remoteJoinWait time.Duration

	// leaseTimeout arms the queue's live lease reclaim: a pool that
	// stops renewing (wedged, partitioned) loses its shard to the
	// survivors without a daemon restart. 0 disables.
	leaseTimeout time.Duration

	chaosKill     float64
	chaosSeed     int64
	chaosPoolKill int // >0: pool 0 dies after this many runs
}

func (p poolPlan) poolConfigs() []fleet.PoolConfig {
	out := make([]fleet.PoolConfig, p.pools, p.pools+p.remotePools)
	for i := range out {
		out[i] = fleet.PoolConfig{
			Name:             fmt.Sprintf("pool%d", i),
			Workers:          p.workers,
			Command:          workerCommand,
			HeartbeatTimeout: p.heartbeat,
			BootTimeout:      p.boot,
			BreakerThreshold: p.breaker,
			MaxRestarts:      p.maxRestarts,
			ChaosKillRate:    p.chaosKill,
			// Offset per pool so pools draw independent chaos streams
			// while the whole fleet stays -chaos-seed reproducible.
			ChaosSeed: p.chaosSeed + int64(i),
		}
	}
	for i := 0; i < p.remotePools; i++ {
		out = append(out, fleet.PoolConfig{
			Name:             fmt.Sprintf("remote%d", i),
			Workers:          p.remoteWorkers,
			Hub:              p.hub,
			JoinWait:         p.remoteJoinWait,
			HeartbeatTimeout: p.heartbeat,
			BootTimeout:      p.boot,
			BreakerThreshold: p.breaker,
			MaxRestarts:      p.maxRestarts,
			ChaosSeed:        p.chaosSeed + int64(p.pools+i),
		})
	}
	if p.chaosPoolKill > 0 && len(out) > 0 {
		out[0].ChaosDieAfterRuns = p.chaosPoolKill
	}
	return out
}

// specRecord is the persisted form of a submission.
type specRecord struct {
	Spec      wire.StudySpec
	ShardSize int
}

// manager owns every campaign the daemon knows about.
type manager struct {
	dataDir string
	plan    poolPlan

	mu        sync.Mutex
	campaigns map[string]*campaign
	seq       int
}

func newManager(dataDir string, plan poolPlan) *manager {
	return &manager{dataDir: dataDir, plan: plan, campaigns: map[string]*campaign{}}
}

// normalizeSpec canonicalizes a submitted spec so that queue/journal
// validation across daemon restarts — and byte-identity against a
// kinject run with the same flags — see exactly one form.
func normalizeSpec(spec wire.StudySpec) (wire.StudySpec, error) {
	model, err := inject.ModelByName(spec.FaultModel)
	if err != nil {
		return spec, err
	}
	spec.FaultModel = inject.ModelTag(model.Name())
	if spec.Campaigns == "" {
		for _, c := range model.Campaigns() {
			spec.Campaigns += analysis.CampaignKey(c)
		}
	}
	cs, err := analysis.ParseCampaigns(spec.Campaigns)
	if err != nil {
		return spec, err
	}
	spec.Campaigns = ""
	for _, c := range cs {
		spec.Campaigns += analysis.CampaignKey(c)
	}
	if spec.Scale <= 0 {
		spec.Scale = 1
	}
	if spec.Seed == 0 {
		spec.Seed = 2003
	}
	if spec.MaxRetries == 0 {
		spec.MaxRetries = core.DefaultMaxRetries
	}
	return spec, nil
}

// Submit registers a new campaign and starts it asynchronously.
func (m *manager) Submit(spec wire.StudySpec, shardSize int) (*campaign, error) {
	spec, err := normalizeSpec(spec)
	if err != nil {
		return nil, err
	}
	if shardSize <= 0 {
		shardSize = m.plan.shardSize
	}

	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("c%04d", m.seq)
	m.mu.Unlock()

	dir := filepath.Join(m.dataDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Persist the spec atomically: the resume scan only trusts dirs
	// whose spec.json is whole.
	buf, err := json.MarshalIndent(specRecord{Spec: spec, ShardSize: shardSize}, "", "  ")
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, specFile+".tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, specFile)); err != nil {
		return nil, err
	}

	c := newCampaign(id, dir, spec, shardSize, m.plan)
	m.mu.Lock()
	m.campaigns[id] = c
	m.mu.Unlock()
	go c.run(m.plan)
	return c, nil
}

// Resume scans the data dir for campaigns from a previous daemon life:
// completed ones are re-registered as-is, interrupted ones restart and
// pick up from their durable queue + journal. Returns the restarted ids.
func (m *manager) Resume() ([]string, error) {
	entries, err := os.ReadDir(m.dataDir)
	if err != nil {
		return nil, err
	}
	var restarted []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(m.dataDir, e.Name())
		buf, err := os.ReadFile(filepath.Join(dir, specFile))
		if err != nil {
			continue // not a campaign dir (or torn mid-submit: never ran)
		}
		var rec specRecord
		if err := json.Unmarshal(buf, &rec); err != nil {
			return nil, fmt.Errorf("%s: corrupt %s: %w", e.Name(), specFile, err)
		}
		c := newCampaign(e.Name(), dir, rec.Spec, rec.ShardSize, m.plan)
		m.mu.Lock()
		m.campaigns[c.id] = c
		var n int
		if _, err := fmt.Sscanf(e.Name(), "c%04d", &n); err == nil && n > m.seq {
			m.seq = n
		}
		m.mu.Unlock()
		if _, err := os.Stat(filepath.Join(dir, resultsFile)); err == nil {
			c.setDone(nil) // published before the restart
			continue
		}
		go c.run(m.plan)
		restarted = append(restarted, c.id)
	}
	sort.Strings(restarted)
	return restarted, nil
}

func (m *manager) Get(id string) (*campaign, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.campaigns[id]
	return c, ok
}

func (m *manager) List() []*campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*campaign, 0, len(m.campaigns))
	for _, c := range m.campaigns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// campaign is one submitted study being executed on the fleet.
type campaign struct {
	id        string
	dir       string
	spec      wire.StudySpec
	shardSize int

	metrics *obs.Metrics
	done    atomic.Int64 // ordinals accounted (results + quarantines)

	mu     sync.Mutex
	state  string
	errMsg string
	totals map[string]int
	total  int
	q      *queue.Queue
	fl     *fleet.Fleet
}

// newCampaign prepares a campaign. Its metrics keep one per-worker row
// per pool of the plan: the fleet accounts runs by pool index.
func newCampaign(id, dir string, spec wire.StudySpec, shardSize int, plan poolPlan) *campaign {
	return &campaign{
		id: id, dir: dir, spec: spec, shardSize: shardSize,
		metrics: obs.New(plan.pools + plan.remotePools),
		state:   stateBooting,
	}
}

func (c *campaign) resultsPath() string { return filepath.Join(c.dir, resultsFile) }

func (c *campaign) setDone(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.state = stateFailed
		c.errMsg = err.Error()
		return
	}
	c.state = stateComplete
	c.errMsg = ""
}

// run drives the campaign to completion (or failure); it is the only
// writer of the campaign's on-disk state.
func (c *campaign) run(plan poolPlan) {
	c.setDone(c.execute(plan))
}

func (c *campaign) execute(plan poolPlan) error {
	// Golden boot: the daemon runs the reference study in-process to
	// obtain the cross-validation oracle and the deterministic target
	// totals every shard boundary derives from.
	var b fleet.Backend
	rdy, err := b.Boot(c.spec)
	if err != nil {
		return fmt.Errorf("golden boot: %w", err)
	}
	total := 0
	for _, n := range rdy.Totals {
		total += n
	}
	c.mu.Lock()
	c.totals = rdy.Totals
	c.total = total
	c.mu.Unlock()

	shards := queue.Shards(rdy.Totals, c.shardSize)
	q, err := c.openQueue(shards)
	if err != nil {
		return err
	}
	defer q.Close()
	q.Metrics = c.metrics
	q.SetLeaseTimeout(plan.leaseTimeout)

	jw, doneMap, err := c.openJournal(q)
	if err != nil {
		return err
	}
	jw.Metrics = c.metrics
	defer jw.Close(nil) // idempotent; the happy path closes with the trailer below

	cs, err := analysis.ParseCampaigns(c.spec.Campaigns)
	if err != nil {
		return err
	}
	for _, cc := range cs {
		if err := jw.BeginCampaign(cc, rdy.Totals[analysis.CampaignKey(cc)]); err != nil {
			return err
		}
	}

	fl, err := fleet.New(fleet.Config{
		Spec:       c.spec,
		GoldenFP:   rdy.GoldenFP,
		GoldenDisk: rdy.GoldenDisk,
		Totals:     rdy.Totals,
		Pools:      plan.poolConfigs(),
		Metrics:    c.metrics,
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.q, c.fl = q, fl
	c.state = stateRunning
	c.mu.Unlock()

	runErr := fl.Run(q, fleet.RunOptions{
		Sink:          jw,
		Done:          doneMap,
		OnOrdinalDone: func(string, int, bool) { c.done.Add(1) },
	})
	snap := c.metrics.Snapshot()
	if cerr := jw.Close(&snap); runErr == nil && cerr != nil {
		runErr = cerr
	}
	if runErr != nil {
		return runErr
	}

	// Publish: re-read the merged journal from disk, prove it whole,
	// and save the reconstructed ResultSet — the same reconstruction a
	// resumed kinject run performs, so the bytes match a single-process
	// study with identical flags.
	j, err := journal.Read(filepath.Join(c.dir, journalFile))
	if err != nil {
		return fmt.Errorf("reread merged journal: %w", err)
	}
	if !j.Complete() {
		return errors.New("merged journal incomplete after queue drain")
	}
	tmp := c.resultsPath() + ".tmp"
	if err := j.ResultSet().Save(tmp); err != nil {
		return err
	}
	return os.Rename(tmp, c.resultsPath())
}

// openQueue opens or creates the campaign's durable shard queue.
func (c *campaign) openQueue(shards []queue.Shard) (*queue.Queue, error) {
	path := filepath.Join(c.dir, queueFile)
	q, err := queue.Open(path, c.spec, shards)
	if errors.Is(err, fs.ErrNotExist) {
		return queue.Create(path, c.spec, shards)
	}
	if errors.Is(err, frame.ErrTornCreate) {
		// A queue torn inside Create was never acted on: with no
		// journal on disk, no result depends on it, so recreate it.
		// With a journal present, refuse: that needs a human.
		if _, jerr := os.Stat(filepath.Join(c.dir, journalFile)); errors.Is(jerr, fs.ErrNotExist) {
			return queue.Create(path, c.spec, shards)
		}
	}
	return q, err
}

// openJournal opens or creates the merged journal and derives the
// already-accounted ordinal map a resumed fleet must skip.
func (c *campaign) openJournal(q *queue.Queue) (*journal.Writer, map[string]map[int]bool, error) {
	path := filepath.Join(c.dir, journalFile)
	jw, prior, err := journal.OpenAppend(path)
	// A journal torn inside Create holds no result, and while no shard
	// is marked done the queue promises none: start it afresh.
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, frame.ErrTornCreate) && q.Stats().Done == 0 {
		jw, err := journal.Create(path, journal.Header{
			Version:             journal.Version,
			Seed:                c.spec.Seed,
			Scale:               c.spec.Scale,
			Campaigns:           c.spec.Campaigns,
			MaxTargetsPerFunc:   c.spec.MaxTargetsPerFunc,
			MaxFuncsPerCampaign: c.spec.MaxFuncsPerCampaign,
			DisableAssertions:   c.spec.DisableAssertions,
			FaultModel:          c.spec.FaultModel,
		})
		return jw, nil, err
	}
	if err != nil {
		return nil, nil, err
	}
	doneMap := map[string]map[int]bool{}
	add := func(key string, ord int) {
		if doneMap[key] == nil {
			doneMap[key] = map[int]bool{}
		}
		doneMap[key][ord] = true
	}
	for key, m := range prior.Completed() {
		for ord := range m {
			add(key, ord)
		}
	}
	for key, m := range prior.QuarantinedOrdinals() {
		for ord := range m {
			add(key, ord)
		}
	}
	n := 0
	for _, m := range doneMap {
		n += len(m)
	}
	c.done.Store(int64(n))
	return jw, doneMap, nil
}

// campaignStatus is the GET /campaigns/{id} body.
type campaignStatus struct {
	ID       string
	State    string
	Error    string `json:",omitempty"`
	Spec     wire.StudySpec
	Totals   map[string]int `json:",omitempty"`
	Progress struct {
		Done  int64
		Total int
	}
	Queue   *queue.Stats       `json:",omitempty"`
	Pools   []fleet.PoolStatus `json:",omitempty"`
	Metrics *obs.Snapshot      `json:",omitempty"`
	Results string             `json:",omitempty"` // results file, when complete
}

func (c *campaign) status() campaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := campaignStatus{
		ID:     c.id,
		State:  c.state,
		Error:  c.errMsg,
		Spec:   c.spec,
		Totals: c.totals,
	}
	st.Progress.Done = c.done.Load()
	st.Progress.Total = c.total
	if c.q != nil {
		qs := c.q.Stats()
		st.Queue = &qs
	}
	if c.fl != nil {
		st.Pools = c.fl.Status()
	}
	snap := c.metrics.Snapshot()
	st.Metrics = &snap
	if c.state == stateComplete {
		st.Results = c.resultsPath()
	}
	return st
}
