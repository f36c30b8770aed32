package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/ext2"
	"repro/internal/fleet"
	"repro/internal/inject"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/supervisor"
	"repro/internal/wire"
)

// Sizes of the traced run's layer probes.
const (
	wireRoundTrips = 2000 // real result frames over os.Pipe
	supervisorRuns = 64   // ordinals dispatched through supervisor.Do
	fleetShards    = 8    // shards fleet.Run drains
	kampaigndFuncs = 4    // functions per campaign of the kampaignd probe
)

// tracedSpans are the span names whose count and timings are per-layer
// metrics; each is reported even when no call happened.
var tracedSpans = []string{
	"inject.run", "journal.put", "kernel.disk_image", "ext2.check", "ext2.repair",
	"ext2.verify_boot", "wire.rtt", "queue.complete", "supervisor.do",
	"fleet.sink_put", "fleet.shard_flush",
	"inject.run.first", "inject.run.sibling", "inject.run.crash", "inject.run.fsv",
	"inject.run.hang", "inject.run.not_activated", "inject.run.not_manifested",
}

// tracedRun is one in-process injection of the traced campaign.
type tracedRun struct {
	res inject.Result
	ok  bool // false: quarantined
	dur time.Duration
}

// tracedStudy is what the in-process traced campaign leaves for the
// probes that follow it.
type tracedStudy struct {
	st      *core.Study
	spec    wire.StudySpec
	totals  map[string]int
	runs    map[string][]tracedRun // campaign key -> by ordinal
	header  journal.Header
	workCmd func() *exec.Cmd
}

// traceRun is the traced per-layer run of one workload. It calls each
// layer's public functions from kbench and records a span around every
// call. In order:
//
//  1. reference: one untraced serial kinject campaign of the study;
//  2. the study in-process: core.New, Targets, then per ordinal
//     Study.RunOrdinal, journal.Writer.Put and, for every graded run, an
//     fsck replica on a copy of its disk; then journal close and read
//     and the ResultSet save;
//  3. wire: round trips of a real result frame over os.Pipe;
//  4. queue: the study's shard plan created and completed;
//  5. kampaignd: a small campaign of the study, polled as in the e2e run;
//  6. supervisor: New plus Do from two goroutines on kinject -worker;
//  7. fleet: fleet.Run over the first shards, with a timing sink.
//
// Every probe's results are compared with the in-process ones.
func (b *bench) traceRun(w workload, seed int64, want string) *report {
	rep := newReport()
	dir, err := os.MkdirTemp(b.work, w.name+"-trace-")
	if err != nil {
		rep.problem("%v", err)
		return rep
	}
	defer os.RemoveAll(dir)

	// 1. Reference: the untraced campaign the trace overhead is charged
	// against, and the source of the journal trailer metrics.
	ref, err := b.kinjectCampaign(workload{w.name, execSerial, w.study}, seed, dir, false)
	if err != nil {
		rep.problem("reference campaign: %v", err)
		return rep
	}
	v := checkCampaign(ref.results, ref.journal)
	rep.account(v)
	checkDigest(v.digest, want, rep)
	j, err := journal.Read(ref.journal)
	if err != nil || j.Trailer == nil {
		rep.problem("reference journal has no trailer: %v", err)
		return rep
	}
	rep.set("journal.flushes", float64(j.Trailer.JournalFlushes))
	// The trailer's byte count stops before the final flush; the file
	// size does not.
	if fi, err := os.Stat(ref.journal); err == nil {
		rep.set("journal.bytes_per_result", float64(fi.Size())/float64(max(v.total, 1)))
	}

	tr := newTracer(w.name)
	root := tr.begin(0, "kbench.trace")
	ts, err := b.traceStudy(tr, root, w.study, seed, dir, v.digest, rep)
	if err == nil {
		err = b.probes(tr, root, ts, w.study, seed, dir, rep)
	}
	if err != nil {
		rep.problem("%v", err)
	}
	tr.end(root)
	// The supervisor and fleet probes SIGKILL their workers on Close
	// without waiting for them: reap them, with no group left to kill.
	if _, err := reapAll(30*time.Second, nil); err != nil {
		rep.problem("%v", err)
	}
	spans := tr.finish()
	rep.spanMetrics(spans)
	if camp := findSpan(spans, "campaign"); camp != nil && ref.campaign > 0 {
		traced := camp.dur() - sumSpans(spans, "ext2.replica")
		rep.set("trace.overhead_pct", 100*(traced.Seconds()-ref.campaign.Seconds())/ref.campaign.Seconds())
	}
	if err := writeSpans(filepath.Join(b.work, "spans-"+w.name+".json"), spans); err != nil {
		rep.problem("write spans: %v", err)
	}
	return rep
}

// traceStudy is step 2 of traceRun: the study in-process, traced.
func (b *bench) traceStudy(tr *tracer, root int, s study, seed int64, dir, refDigest string, rep *report) (*tracedStudy, error) {
	cfg := s.config(seed)
	cfg.Metrics = obs.New(1)
	id := tr.begin(root, "core.new")
	st, err := core.New(cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	ts := &tracedStudy{
		st: st, spec: wireSpec(st), totals: map[string]int{}, runs: map[string][]tracedRun{},
		workCmd: func() *exec.Cmd { return exec.Command(b.kinject, "-worker") },
	}
	ts.header = journal.Header{
		Version: journal.Version, Seed: st.Cfg.Seed, Scale: st.Cfg.Scale,
		Campaigns: ts.spec.Campaigns, MaxTargetsPerFunc: st.Cfg.MaxTargetsPerFunc,
		MaxFuncsPerCampaign: st.Cfg.MaxFuncsPerCampaign, FaultModel: ts.spec.FaultModel,
	}
	rep.set("kernel.golden_ms", ms(st.Runner.GoldenWall))
	targets := map[inject.Campaign][]inject.Target{}
	id = tr.begin(root, "core.targets")
	for _, c := range st.Cfg.Campaigns {
		if targets[c], err = st.Targets(c); err != nil {
			break
		}
		ts.totals[analysis.CampaignKey(c)] = len(targets[c])
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}

	jpath := filepath.Join(dir, "traced.kjnl")
	jw, err := journal.Create(jpath, ts.header)
	if err != nil {
		return nil, err
	}
	jw.Metrics = cfg.Metrics
	defer jw.Close(nil) // no-op after the traced Close below

	// Targets of a PC-keyed model arrive grouped by PC: the first at each
	// PC runs in full and records, its siblings replay or are
	// synthesized. Armed models run every target in full.
	armed, _ := st.Runner.CheckpointDisabled()
	c0 := st.Runner.M.CPU.Cycles // the pristine snapshot's cycle count
	var fullCycles uint64
	var fullTime time.Duration
	camp := tr.begin(root, "campaign")
	for _, c := range st.Cfg.Campaigns {
		key, tl := analysis.CampaignKey(c), targets[c]
		if err := jw.BeginCampaign(c, len(tl)); err != nil {
			return nil, err
		}
		for i, t := range tl {
			path := "sibling"
			if armed || i == 0 || tl[i-1].InstAddr != t.InstAddr {
				path = "first"
			}
			rid := tr.begin(camp, "inject.run")
			res, hf, err := st.RunOrdinal(c, i)
			outcome := "quarantined"
			if hf == nil {
				outcome = outcomeTag(res.Outcome)
			}
			d := tr.end(rid, "outcome", outcome, "path", path)
			if err != nil {
				return nil, err
			}
			if path == "first" {
				fullCycles += st.Runner.M.CPU.Cycles - c0
				fullTime += d
			}
			pid := tr.begin(camp, "journal.put")
			if hf != nil {
				err = jw.Quarantine(c, 0, i, *hf)
			} else {
				err = jw.Put(c, 0, i, len(tl), res)
			}
			tr.end(pid)
			if err != nil {
				return nil, err
			}
			ts.runs[key] = append(ts.runs[key], tracedRun{res: res, ok: hf == nil, dur: d})
			if hf == nil && graded(res.Outcome) {
				replica(tr, camp, st)
			}
		}
	}
	tr.end(camp)
	if fullCycles > 0 {
		rep.set("kernel.full_run.ns_per_cycle", float64(fullTime.Nanoseconds())/float64(fullCycles))
	}
	snap := cfg.Metrics.Snapshot()
	rep.set("core.retries", float64(snap.Retries))
	rep.set("core.reboots", float64(snap.RunnerReboots))
	if n := snap.BlockCacheHits + snap.BlockCacheMisses; n > 0 {
		rep.set("cpu.block_hit_ratio", float64(snap.BlockCacheHits)/float64(n))
	}
	rep.set("cpu.block_flushes", float64(snap.BlockFlushes))
	rep.set("cpu.block_fallbacks", float64(snap.BlockFallbacks))

	id = tr.begin(root, "journal.close")
	err = jw.Close(&snap)
	rep.set("journal.close_ms", ms(tr.end(id)))
	if err != nil {
		return nil, err
	}
	id = tr.begin(root, "journal.read")
	j, err := journal.Read(jpath)
	rep.set("journal.read_s", tr.end(id).Seconds())
	if err != nil {
		return nil, err
	}
	out := filepath.Join(dir, "traced.json.gz")
	id = tr.begin(root, "analysis.save")
	err = j.ResultSet().Save(out)
	rep.set("analysis.save_s", tr.end(id).Seconds())
	if err != nil {
		return nil, err
	}
	if raw, err := gunzipFile(out); err != nil || sha256hex(raw) != refDigest {
		rep.problem("the traced in-process ResultSet differs from the kinject reference")
	}
	return ts, nil
}

// graded reports whether the runner graded the run's severity with an
// fsck of its disk: crashes, hangs and fail-silence violations.
func graded(o inject.Outcome) bool {
	return o == inject.OutcomeCrash || o == inject.OutcomeHang || o == inject.OutcomeFailSilence
}

func outcomeTag(o inject.Outcome) string {
	switch o {
	case inject.OutcomeCrash:
		return "crash"
	case inject.OutcomeFailSilence:
		return "fsv"
	case inject.OutcomeHang:
		return "hang"
	case inject.OutcomeNotActivated:
		return "not_activated"
	case inject.OutcomeNotManifested:
		return "not_manifested"
	}
	return "unknown"
}

// replica repeats the severity grading of the run that just finished on
// a copy of its disk, timing each ext2 step. It runs outside the
// inject.run span, and its time is excluded from the traced campaign.
func replica(tr *tracer, parent int, st *core.Study) {
	rid := tr.begin(parent, "ext2.replica")
	defer tr.end(rid)
	id := tr.begin(rid, "kernel.disk_image")
	img, err := st.Runner.M.DiskImage()
	tr.end(id)
	if err != nil {
		return // the run unmapped the ramdisk
	}
	dev, err := disk.FromImage(img)
	if err != nil {
		return
	}
	id = tr.begin(rid, "ext2.check")
	status := ext2.Check(dev).Status
	tr.end(id)
	if status == ext2.StatusUnrecoverable {
		return
	}
	if status == ext2.StatusFixable {
		id = tr.begin(rid, "ext2.repair")
		err = ext2.Repair(dev)
		tr.end(id)
		if err != nil {
			return
		}
	}
	id = tr.begin(rid, "ext2.verify_boot")
	if fs, err := ext2.Open(dev); err == nil {
		fs.VerifyBoot(st.Runner.M.BootManifest)
	}
	tr.end(id)
}

// probes runs steps 3-7 of traceRun.
func (b *bench) probes(tr *tracer, root int, ts *tracedStudy, s study, seed int64, dir string, rep *report) error {
	if err := wireProbe(tr, root, ts, rep); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	if err := queueProbe(tr, root, ts, dir); err != nil {
		return fmt.Errorf("queue probe: %w", err)
	}
	small := s
	if small.maxFuncs == 0 || small.maxFuncs > kampaigndFuncs {
		small.maxFuncs = kampaigndFuncs
	}
	kdir := filepath.Join(dir, "kampaignd")
	if err := os.Mkdir(kdir, 0o755); err != nil {
		return err
	}
	// Polled every 5 ms throughout: the probe measures the status
	// endpoint itself.
	kr, err := b.fleetCampaign(small, seed, kdir, fleetRun{poll: 5 * time.Millisecond})
	if err != nil {
		return fmt.Errorf("kampaignd probe: %w", err)
	}
	if v := checkCampaign(kr.results, kr.journal); len(v.problems) > 0 {
		rep.problem("kampaignd probe: %v", v.problems)
	}
	polls := make(sample, len(kr.polls))
	for i, p := range kr.polls {
		polls[i] = ms(p)
	}
	rep.set("kampaignd.status.p50_ms", polls.median())
	rep.setTail("kampaignd.status.tail_ms", polls)
	if err := supervisorProbe(tr, root, ts, rep); err != nil {
		return fmt.Errorf("supervisor probe: %w", err)
	}
	if err := fleetProbe(tr, root, ts, dir, rep); err != nil {
		return fmt.Errorf("fleet probe: %w", err)
	}
	return nil
}

// wireProbe times round trips of one real result frame, echoed back by
// a goroutine over a pair of os.Pipes — the transport of kinject
// -worker.
func wireProbe(tr *tracer, root int, ts *tracedStudy, rep *report) error {
	msg := &wire.Msg{Type: wire.TypeResult, Result: sampleResult(ts)}
	payload, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	rep.set("wire.result_frame_bytes", float64(4+len(payload)+4))
	toR, toW, err := os.Pipe()
	if err != nil {
		return err
	}
	fromR, fromW, err := os.Pipe()
	if err != nil {
		return err
	}
	defer toR.Close()
	defer fromR.Close()
	client, server := wire.NewConn(fromR, toW), wire.NewConn(toR, fromW)
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		defer fromW.Close()
		for {
			m, err := server.Recv()
			if err != nil || server.Send(m) != nil {
				return
			}
		}
	}()
	p := tr.begin(root, "wire")
	for i := 0; i < wireRoundTrips && err == nil; i++ {
		id := tr.begin(p, "wire.rtt")
		if err = client.Send(msg); err == nil {
			_, err = client.Recv()
		}
		tr.end(id)
	}
	tr.end(p)
	toW.Close()
	<-echoed
	return err
}

// sampleResult picks the frame the wire probe sends: the first crash
// result (crash dumps make the largest frames), else the first result.
func sampleResult(ts *tracedStudy) *inject.Result {
	var first *inject.Result
	for _, c := range ts.st.Cfg.Campaigns {
		for i := range ts.runs[analysis.CampaignKey(c)] {
			r := &ts.runs[analysis.CampaignKey(c)][i]
			if !r.ok {
				continue
			}
			if r.res.Outcome == inject.OutcomeCrash {
				return &r.res
			}
			if first == nil {
				first = &r.res
			}
		}
	}
	if first == nil {
		return &inject.Result{}
	}
	return first
}

// queueProbe creates the study's shard queue and completes every shard.
func queueProbe(tr *tracer, root int, ts *tracedStudy, dir string) error {
	id := tr.begin(root, "queue.create")
	q, err := queue.Create(filepath.Join(dir, "probe.kq"), ts.spec, queue.Shards(ts.totals, shardSize))
	tr.end(id)
	if err != nil {
		return err
	}
	defer q.Close()
	for {
		sh, ok := q.Acquire("kbench")
		if !ok {
			return q.Err()
		}
		id := tr.begin(root, "queue.complete")
		err := q.Complete(sh.ID)
		tr.end(id)
		if err != nil {
			return err
		}
	}
}

// supervisorProbe dispatches the first ordinals of the study's first
// campaign through supervisor.Do from two goroutines, each result
// checked against the in-process one.
func supervisorProbe(tr *tracer, root int, ts *tracedStudy, rep *report) error {
	key := analysis.CampaignKey(ts.st.Cfg.Campaigns[0])
	runs := ts.runs[key]
	n := min(supervisorRuns, len(runs))
	t0 := time.Now()
	sup := supervisor.New(supervisor.Config{
		Command:    ts.workCmd,
		Workers:    parallelWorkers,
		Spec:       ts.spec,
		GoldenFP:   ts.st.Runner.GoldenFingerprint(),
		GoldenDisk: fmt.Sprintf("%x", ts.st.Runner.GoldenDiskHash()),
		Totals:     ts.totals,
	})
	p := tr.begin(root, "supervisor")
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstEnd time.Time
		overhead sample
		failure  error
	)
	for g := 0; g < parallelWorkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ord := int(next.Add(1) - 1)
				if ord >= n {
					return
				}
				id := tr.begin(p, "supervisor.do")
				res, hf, err := sup.Do(key, ord)
				d := tr.end(id)
				now := time.Now()
				mu.Lock()
				if firstEnd.IsZero() || now.Before(firstEnd) {
					firstEnd = now
				}
				overhead = append(overhead, ms(d-runs[ord].dur))
				switch {
				case failure != nil:
				case err != nil:
					failure = err
				case (hf == nil) != runs[ord].ok || (res != nil && !sameJSON(*res, runs[ord].res)):
					failure = fmt.Errorf("%s/%d: supervisor result differs from the in-process one", key, ord)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	tr.end(p)
	rep.set("supervisor.worker_restarts", float64(sup.Restarts()))
	sup.Close()
	if failure != nil {
		return failure
	}
	rep.set("supervisor.first_do_s", firstEnd.Sub(t0).Seconds())
	rep.set("supervisor.overhead.p50_ms", overhead.median())
	return nil
}

// fleetProbe drains the first shards of the study's plan with
// fleet.Run on two local pools of one kinject -worker each.
func fleetProbe(tr *tracer, root int, ts *tracedStudy, dir string, rep *report) error {
	shards := queue.Shards(ts.totals, shardSize)
	shards = shards[:min(fleetShards, len(shards))]
	q, err := queue.Create(filepath.Join(dir, "fleet.kq"), ts.spec, shards)
	if err != nil {
		return err
	}
	defer q.Close()
	jw, err := journal.Create(filepath.Join(dir, "fleet.kjnl"), ts.header)
	if err != nil {
		return err
	}
	defer jw.Close(nil)
	for _, c := range ts.st.Cfg.Campaigns {
		if err := jw.BeginCampaign(c, ts.totals[analysis.CampaignKey(c)]); err != nil {
			return err
		}
	}
	pools := make([]fleet.PoolConfig, parallelWorkers)
	for i := range pools {
		pools[i] = fleet.PoolConfig{Name: fmt.Sprintf("pool%d", i), Workers: 1, Command: ts.workCmd}
	}
	fl, err := fleet.New(fleet.Config{
		Spec: ts.spec, GoldenFP: ts.st.Runner.GoldenFingerprint(),
		GoldenDisk: fmt.Sprintf("%x", ts.st.Runner.GoldenDiskHash()),
		Totals:     ts.totals, Pools: pools,
	})
	if err != nil {
		return err
	}
	p := tr.begin(root, "fleet.run")
	sink := &timingSink{w: jw, tr: tr, parent: p, t0: time.Now(), last: map[int]time.Time{}, ts: ts}
	err = fl.Run(q, fleet.RunOptions{Sink: sink})
	tr.end(p)
	if err != nil {
		return err
	}
	if sink.err != nil {
		return sink.err
	}
	lo, hi := time.Time{}, time.Time{}
	for _, t := range sink.last {
		if lo.IsZero() || t.Before(lo) {
			lo = t
		}
		if t.After(hi) {
			hi = t
		}
	}
	rep.set("fleet.first_put_s", sink.first.Sub(sink.t0).Seconds())
	rep.set("fleet.tail_s", hi.Sub(lo).Seconds())
	return nil
}

// timingSink is the fleet's result sink: a journal.Writer with a span
// around every call, the first Put and each pool's last Put recorded,
// and every result checked against the in-process one.
type timingSink struct {
	w      *journal.Writer
	tr     *tracer
	parent int
	t0     time.Time
	ts     *tracedStudy

	mu    sync.Mutex
	first time.Time
	last  map[int]time.Time // pool index -> its last Put
	err   error             // first mismatch
}

func (s *timingSink) BeginCampaign(c inject.Campaign, total int) error {
	return s.w.BeginCampaign(c, total)
}

func (s *timingSink) Put(c inject.Campaign, worker, ordinal, total int, res inject.Result) error {
	id := s.tr.begin(s.parent, "fleet.sink_put")
	err := s.w.Put(c, worker, ordinal, total, res)
	s.tr.end(id)
	s.note(c, worker, ordinal, &res)
	return err
}

func (s *timingSink) Quarantine(c inject.Campaign, worker, ordinal int, hf inject.HarnessFault) error {
	id := s.tr.begin(s.parent, "fleet.sink_put")
	err := s.w.Quarantine(c, worker, ordinal, hf)
	s.tr.end(id)
	s.note(c, worker, ordinal, nil)
	return err
}

func (s *timingSink) Flush() error {
	id := s.tr.begin(s.parent, "fleet.shard_flush")
	defer s.tr.end(id)
	return s.w.Flush()
}

func (s *timingSink) note(c inject.Campaign, worker, ordinal int, res *inject.Result) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.first.IsZero() {
		s.first = now
	}
	s.last[worker] = now
	key := analysis.CampaignKey(c)
	want := s.ts.runs[key][ordinal]
	if s.err == nil && ((res != nil) != want.ok || (res != nil && !sameJSON(*res, want.res))) {
		s.err = fmt.Errorf("%s/%d: fleet result differs from the in-process one", key, ordinal)
	}
}

// spanMetrics derives the per-layer timings from the spans.
func (r *report) spanMetrics(spans []span) {
	by := map[string]sample{}
	for _, name := range tracedSpans {
		by[name] = sample{}
	}
	for i := range spans {
		s := &spans[i]
		d := s.dur().Seconds()
		by[s.Name] = append(by[s.Name], d)
		if s.Name == "inject.run" {
			by["inject.run."+s.Attrs["outcome"]] = append(by["inject.run."+s.Attrs["outcome"]], d)
			by["inject.run."+s.Attrs["path"]] = append(by["inject.run."+s.Attrs["path"]], d)
		}
	}
	for name, xs := range by {
		r.set(name+".count", float64(len(xs)))
		r.set(name+".busy_s", xs.sum())
		r.set(name+".p50_ms", 1e3*xs.median())
		r.set(name+".p50_us", 1e6*xs.median())
		r.setTail(name+".tail_ms", scaled(xs, 1e3))
		r.setTail(name+".tail_us", scaled(xs, 1e6))
	}
	for _, name := range []string{"core.new", "core.targets"} {
		r.set(name+"_s", by[name].sum())
	}
	r.set("queue.create_ms", 1e3*by["queue.create"].sum())
	runs := by["inject.run"]
	if len(runs) > 0 {
		r.set("inject.sibling_frac", float64(len(by["inject.run.sibling"]))/float64(len(runs)))
		r.set("inject.hang_share", by["inject.run.hang"].sum()/runs.sum())
	}
}

func scaled(xs sample, k float64) sample {
	out := make(sample, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

func findSpan(spans []span, name string) *span {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

func sumSpans(spans []span, name string) time.Duration {
	var t time.Duration
	for i := range spans {
		if spans[i].Name == name {
			t += spans[i].dur()
		}
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
