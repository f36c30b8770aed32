// Package obs collects live observability metrics for injection
// campaigns: run counters per outcome, activation rate, throughput,
// per-worker utilization and journal flush statistics. All counters
// are atomic so the serial loop and every parallel worker can update
// them without coordination; Snapshot freezes a consistent-enough view
// for the progress line, the final report and the journal trailer.
package obs

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cpu"
	"repro/internal/inject"
)

// Counters declares every scalar counter once. Metrics holds it as
// live atomics and Snapshot as plain values. A field's name is its
// JSON key in the journal trailer and the kampaignd status. Its obs
// tag, "label" or "label,note", makes Render print "label N (note)"
// while the counter is nonzero; an untagged counter is rendered by a
// composite line or not at all. Adding a counter is one field here
// plus the call site that counts it, e.g. m.PoolDeaths.Add(1).
type Counters[T any] struct {
	RunsStarted   T
	RunsCompleted T
	// Skipped counts targets restored from a journal instead of re-run.
	Skipped   T `obs:"skipped (resumed)"`
	Activated T

	// Batches flushed to the result journal and their bytes.
	JournalFlushes T
	JournalBytes   T

	// Harness fault tolerance: retries on fresh runners, runner
	// reboots after suspect machine state, and targets quarantined
	// after exhausted retries.
	Retries       T `json:",omitempty" obs:"harness retries"`
	RunnerReboots T `json:",omitempty" obs:"runner reboots"`
	Quarantined   T `json:",omitempty" obs:"quarantined,excluded from analysis"`

	// Process-isolation supervision: worker restarts after abnormal
	// deaths (crash, hang kill, protocol error), supervisor-initiated
	// kills, per-target circuit-breaker trips after consecutive worker
	// deaths, rejected protocol frames (bad CRC, mismatched reply,
	// unexpected type) and chaos-test kills (excluded from the breaker
	// and the restart budget).
	WorkerRestarts T `json:",omitempty" obs:"worker restarts"`
	WorkerKills    T `json:",omitempty" obs:"worker kills,heartbeat/boot deadline"`
	BreakerTrips   T `json:",omitempty" obs:"breaker trips,targets abandoned to quarantine"`
	FramesRejected T `json:",omitempty" obs:"frames rejected"`
	ChaosKills     T `json:",omitempty" obs:"chaos kills,fault-injection test wrapper"`

	// Fleet (campaign-manager) supervision: durable queue shards
	// completed and whole pools lost mid-campaign.
	ShardsCompleted T `json:",omitempty" obs:"shards completed"`
	PoolDeaths      T `json:",omitempty" obs:"pool deaths,shards requeued to survivors"`

	// Remote execution plane: TCP workers attached to remote pools
	// (initial connects and reconnects), attach probes that discarded
	// a dead or version-skewed connection, dials that found no worker
	// within the join wait (charged to the pool's restart budget),
	// workers abandoned because a read deadline expired mid-frame (the
	// peer died after a partial write), remote pools lost with the
	// campaign degrading onto the survivors, stale shard leases
	// reclaimed from pools that stopped making progress, and duplicate
	// ordinal results dropped at the merged sink (a shard re-executed
	// after a partition or lease reclaim raced its first execution).
	RemoteAttaches     T `json:",omitempty" obs:"remote attaches,TCP workers vetted onto pools"`
	RemoteProbeFails   T `json:",omitempty" obs:"remote probe fails,dead or skewed connections discarded"`
	RemoteDialTimeouts T `json:",omitempty" obs:"remote dial t/o,no worker joined within the wait"`
	DeadlineKills      T `json:",omitempty" obs:"deadline kills,peers dead mid-frame"`
	Degradations       T `json:",omitempty" obs:"degradations,remote pools lost; survivors drained the queue"`
	LeaseReclaims      T `json:",omitempty" obs:"lease reclaims,stale shard leases broken live"`
	DupOrdinalsDropped T `json:",omitempty" obs:"dup ordinals,re-executed shard results deduplicated"`

	// Superblock trace-execution engine (cpu.BlockStats deltas, summed
	// across the study's runner machines): block-cache hits, decodes,
	// code-change flushes and single-step fallbacks. All zero when the
	// engine is disabled (-blocks=false).
	BlockCacheHits   T `json:",omitempty"`
	BlockCacheMisses T `json:",omitempty"`
	BlockFlushes     T `json:",omitempty"`
	BlockFallbacks   T `json:",omitempty"`
}

// counterLine is one tagged Counters field.
type counterLine struct {
	field       int
	label, note string
}

// counterLines are the tagged Counters fields in declaration order.
var counterLines = func() (out []counterLine) {
	t := reflect.TypeFor[Counters[int64]]()
	for i := range t.NumField() {
		if tag, ok := t.Field(i).Tag.Lookup("obs"); ok {
			label, note, _ := strings.Cut(tag, ",")
			out = append(out, counterLine{i, label, note})
		}
	}
	return out
}()

// Metrics is the set of live counters for one study. Create it with
// New and share the pointer between the driver and the workers; the
// zero value is not usable.
type Metrics struct {
	Counters[atomic.Int64]

	start time.Time
	now   func() time.Time

	// outcomes is indexed by inject.Outcome (1..5).
	outcomes [6]atomic.Int64
	// faults is indexed like inject.FaultKinds; the last slot counts
	// undeclared kinds as "other".
	faults [len(inject.FaultKinds) + 1]atomic.Int64

	workers []workerStats
}

type workerStats struct {
	runs atomic.Int64
	busy atomic.Int64 // nanoseconds spent inside RunTarget
}

// New returns metrics sized for the given number of workers (a serial
// study is worker 0 of 1).
func New(workers int) *Metrics {
	if workers < 1 {
		workers = 1
	}
	m := &Metrics{now: time.Now, workers: make([]workerStats, workers)}
	m.start = m.now()
	return m
}

// RunFinished records one completed injection run and the time the
// worker spent executing it.
func (m *Metrics) RunFinished(worker int, res *inject.Result, busy time.Duration) {
	m.RunsCompleted.Add(1)
	if res.Activated {
		m.Activated.Add(1)
	}
	if o := int(res.Outcome); o >= 1 && o < len(m.outcomes) {
		m.outcomes[o].Add(1)
	}
	if worker >= 0 && worker < len(m.workers) {
		m.workers[worker].runs.Add(1)
		m.workers[worker].busy.Add(int64(busy))
	}
}

// HarnessFault records one recovered harness fault (the run produced
// no result; the worker's busy time is still accounted).
func (m *Metrics) HarnessFault(worker int, kind inject.FaultKind, busy time.Duration) {
	i := slices.Index(inject.FaultKinds[:], kind)
	if i < 0 {
		i = len(inject.FaultKinds)
	}
	m.faults[i].Add(1)
	if worker >= 0 && worker < len(m.workers) {
		m.workers[worker].busy.Add(int64(busy))
	}
}

// BlockStats accumulates superblock-engine counter deltas from one
// runner machine.
func (m *Metrics) BlockStats(d cpu.BlockStats) {
	m.BlockCacheHits.Add(int64(d.Hits))
	m.BlockCacheMisses.Add(int64(d.Misses))
	m.BlockFlushes.Add(int64(d.Flushes))
	m.BlockFallbacks.Add(int64(d.Fallbacks))
}

// JournalFlush records one batch flushed to the result journal.
func (m *Metrics) JournalFlush(bytes int) {
	m.JournalFlushes.Add(1)
	m.JournalBytes.Add(int64(bytes))
}

// WorkerStat is the per-worker slice of a Snapshot.
type WorkerStat struct {
	Runs        int64
	Busy        time.Duration
	Utilization float64 // Busy / Elapsed
}

// Snapshot is a frozen view of the metrics, serializable into the
// journal trailer and renderable as the live status line or the final
// metrics block.
type Snapshot struct {
	Elapsed time.Duration
	Counters[int64]
	Outcomes       map[string]int64
	ActivationRate float64 // activated / completed
	RunsPerSec     float64
	Workers        []WorkerStat

	// HarnessFaults counts recovered harness faults by inject.FaultKind,
	// with undeclared kinds under "other".
	HarnessFaults map[string]int64 `json:",omitempty"`
}

// HarnessFaultTotal sums the recovered harness faults across kinds.
func (s Snapshot) HarnessFaultTotal() int64 {
	var n int64
	for _, v := range s.HarnessFaults {
		n += v
	}
	return n
}

// Snapshot freezes the current counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Elapsed: m.now().Sub(m.start), Outcomes: make(map[string]int64)}
	live := reflect.ValueOf(&m.Counters).Elem()
	frozen := reflect.ValueOf(&s.Counters).Elem()
	for i := range live.NumField() {
		frozen.Field(i).SetInt(live.Field(i).Addr().Interface().(*atomic.Int64).Load())
	}
	for o := 1; o < len(m.outcomes); o++ {
		if n := m.outcomes[o].Load(); n > 0 {
			s.Outcomes[inject.Outcome(o).String()] = n
		}
	}
	for i := range m.faults {
		if n := m.faults[i].Load(); n > 0 {
			kind := "other"
			if i < len(inject.FaultKinds) {
				kind = string(inject.FaultKinds[i])
			}
			if s.HarnessFaults == nil {
				s.HarnessFaults = make(map[string]int64)
			}
			s.HarnessFaults[kind] = n
		}
	}
	if s.RunsCompleted > 0 {
		s.ActivationRate = float64(s.Activated) / float64(s.RunsCompleted)
	}
	if sec := s.Elapsed.Seconds(); sec > 0 {
		s.RunsPerSec = float64(s.RunsCompleted) / sec
	}
	for i := range m.workers {
		w := WorkerStat{
			Runs: m.workers[i].runs.Load(),
			Busy: time.Duration(m.workers[i].busy.Load()),
		}
		if s.Elapsed > 0 {
			w.Utilization = float64(w.Busy) / float64(s.Elapsed)
		}
		s.Workers = append(s.Workers, w)
	}
	return s
}

// OneLine renders the compact live-status form.
func (s Snapshot) OneLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.1f runs/s, act %.0f%%", s.RunsPerSec, 100*s.ActivationRate)
	if s.Skipped > 0 {
		fmt.Fprintf(&b, ", skipped %d", s.Skipped)
	}
	if n := len(s.Workers); n > 1 {
		var util float64
		for _, w := range s.Workers {
			util += w.Utilization
		}
		fmt.Fprintf(&b, ", %dw util %.0f%%", n, 100*util/float64(n))
	}
	if n := s.HarnessFaultTotal(); n > 0 {
		fmt.Fprintf(&b, ", hfaults %d", n)
	}
	if s.Quarantined > 0 {
		fmt.Fprintf(&b, ", quar %d", s.Quarantined)
	}
	if s.WorkerRestarts > 0 {
		fmt.Fprintf(&b, ", restarts %d", s.WorkerRestarts)
	}
	if s.JournalFlushes > 0 {
		fmt.Fprintf(&b, ", jrnl %s", fmtBytes(s.JournalBytes))
	}
	return b.String()
}

// Render formats the full metrics block for the end of a report.
func (s Snapshot) Render() string {
	var b strings.Builder
	b.WriteString("metrics:\n")
	fmt.Fprintf(&b, "  elapsed            %s\n", s.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  runs started       %d\n", s.RunsStarted)
	fmt.Fprintf(&b, "  runs completed     %d (%.1f/s)\n", s.RunsCompleted, s.RunsPerSec)
	// The first tagged counter, Skipped, sits with the run counts.
	s.writeCounters(&b, counterLines[:1])
	fmt.Fprintf(&b, "  activated          %d (%.1f%%)\n", s.Activated, 100*s.ActivationRate)
	keys := make([]string, 0, len(s.Outcomes))
	for k := range s.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  outcome %-22s %d\n", k, s.Outcomes[k])
	}
	for i, w := range s.Workers {
		fmt.Fprintf(&b, "  worker %-2d          %d runs, busy %s (%.0f%% utilization)\n",
			i, w.Runs, w.Busy.Round(time.Millisecond), 100*w.Utilization)
	}
	if n := s.HarnessFaultTotal(); n > 0 {
		kinds := make([]string, 0, len(s.HarnessFaults))
		for k := range s.HarnessFaults {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, 0, len(kinds))
		for _, k := range kinds {
			parts = append(parts, fmt.Sprintf("%s %d", k, s.HarnessFaults[k]))
		}
		fmt.Fprintf(&b, "  harness faults     %d recovered (%s)\n", n, strings.Join(parts, ", "))
	}
	s.writeCounters(&b, counterLines[1:])
	if n := s.BlockCacheHits + s.BlockCacheMisses; n > 0 {
		fmt.Fprintf(&b, "  block cache        %d hits, %d misses (%.1f%% hit rate)\n",
			s.BlockCacheHits, s.BlockCacheMisses, 100*float64(s.BlockCacheHits)/float64(n))
		fmt.Fprintf(&b, "  block flushes      %d (code-page invalidations)\n", s.BlockFlushes)
		fmt.Fprintf(&b, "  block fallbacks    %d (single-step dispatches)\n", s.BlockFallbacks)
	}
	if s.JournalFlushes > 0 {
		fmt.Fprintf(&b, "  journal            %d flushes, %s\n", s.JournalFlushes, fmtBytes(s.JournalBytes))
	}
	return b.String()
}

// writeCounters prints the line of every nonzero counter in lines.
func (s Snapshot) writeCounters(b *strings.Builder, lines []counterLine) {
	v := reflect.ValueOf(&s.Counters).Elem()
	for _, l := range lines {
		n := v.Field(l.field).Int()
		if n == 0 {
			continue
		}
		fmt.Fprintf(b, "  %-18s %d", l.label, n)
		if l.note != "" {
			fmt.Fprintf(b, " (%s)", l.note)
		}
		b.WriteByte('\n')
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
