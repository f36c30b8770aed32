// Package journal is the durability layer for injection campaigns: an
// append-only, crash-safe result journal that records every completed
// injection as it happens, so an interrupted study (SIGINT, OOM,
// worker failure) loses at most the unflushed tail instead of hours of
// finished experiments.
//
// On disk a journal is the magic "kjnl2" followed by internal/frame
// frames, each holding one gzip-JSON record. Record kinds:
//
//	header      study configuration (seed, scale, campaigns, caps)
//	campaign    campaign start: key and total target count
//	result      one completed injection: {campaign, ordinal, result}
//	quarantine  one target abandoned after exhausted harness-fault
//	            retries: {campaign, ordinal, fault}; resume skips it
//	index       fsync'd high-water marks of {campaign, ordinal} per
//	            worker shard, written with every flushed batch
//	trailer     final metrics snapshot on clean close
//
// Package frame defines the torn-tail versus corruption rule. A torn
// tail is recoverable: every intact record is read, and OpenAppend
// truncates the tear and resumes writing after the last intact record.
// A corrupt frame is never silently tolerated: Read and OpenAppend fail
// with a *CorruptError naming the offset and index of the first bad
// frame (kreport -verify fscks a journal the same way). An
// analysis.ResultSet reconstructed from a complete journal is
// identical to the set the live study assembled.
//
// Durability: every flushed batch, the header and the trailer are
// fsync'd, and the parent directory is fsync'd after create, so an
// acknowledged frame survives host power loss.
package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/frame"
	"repro/internal/inject"
	"repro/internal/obs"
)

const magic = "kjnl2\n"

// Version is the journal format version. Version 2 added quarantine
// records; version 3 added the CRC32C frame trailer (and the "kjnl2"
// magic); version 4 added the fault-model tag to the header (absent in
// older journals, which are all bitflip studies and read unchanged).
const Version = 4

// CorruptError reports a corrupt journal frame. Unlike a torn tail it
// is not silently recoverable — frames behind the corruption may be
// intact but cannot be trusted to be reachable consistently, so the
// journal must be inspected (kreport -verify) before any use.
type CorruptError = frame.CorruptError

// DefaultFlushEvery is the default number of buffered result records
// per fsync'd batch.
const DefaultFlushEvery = 32

// Header records the study configuration the journal belongs to; a
// resumed run restores these knobs so the deterministic target list
// re-derives identically.
type Header struct {
	Version             int
	Seed                int64
	Scale               int
	Campaigns           string // e.g. "ABC"
	MaxTargetsPerFunc   int
	MaxFuncsPerCampaign int
	DisableAssertions   bool
	// FaultModel names the fault model the study ran under ("" =
	// bitflip; journals predating version 4 never carry it).
	FaultModel string `json:",omitempty"`
}

// ShardMark is one {campaign, target-ordinal} high-water mark of a
// worker shard.
type ShardMark struct {
	Shard    int
	Campaign string
	Ordinal  int
}

// record is the on-disk union of all record kinds.
type record struct {
	Kind     string               `json:"kind"`
	Header   *Header              `json:"header,omitempty"`
	Campaign string               `json:"campaign,omitempty"`
	Total    int                  `json:"total,omitempty"`
	Worker   int                  `json:"worker,omitempty"`
	Ordinal  int                  `json:"ordinal,omitempty"`
	Result   *inject.Result       `json:"result,omitempty"`
	Fault    *inject.HarnessFault `json:"fault,omitempty"`
	Index    []ShardMark          `json:"index,omitempty"`
	Metrics  *obs.Snapshot        `json:"metrics,omitempty"`
}

const (
	kindHeader     = "header"
	kindCampaign   = "campaign"
	kindResult     = "result"
	kindQuarantine = "quarantine"
	kindIndex      = "index"
	kindTrailer    = "trailer"
)

// Writer appends records to a journal. It is safe for concurrent use
// by parallel workers: results are buffered and flushed in batches,
// each batch followed by an index record and an fsync.
type Writer struct {
	mu       sync.Mutex
	f        *os.File
	pending  []byte // framed records not yet written
	pendingN int
	marks    map[int]map[string]int // shard -> campaign -> high-water ordinal
	closed   bool

	// FlushEvery is the number of buffered result records that forces
	// a flush (default DefaultFlushEvery).
	FlushEvery int
	// Metrics receives flush counters (Create and OpenAppend start it
	// with a private one).
	Metrics *obs.Metrics
}

// Create starts a new journal at path, truncating any existing file,
// and durably writes the magic and header.
func Create(path string, h Header) (*Writer, error) {
	if h.Version == 0 {
		h.Version = Version
	}
	f, err := frame.Create(path, magic, &record{Kind: kindHeader, Header: &h})
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	return &Writer{f: f, FlushEvery: DefaultFlushEvery, marks: make(map[int]map[string]int), Metrics: obs.New(1)}, nil
}

// OpenAppend reopens an existing journal for resumption: it scans the
// intact record prefix, truncates any torn tail, and positions the
// writer after the last intact record. Mid-file corruption (a frame
// failing its CRC32C with more data behind it) refuses to resume —
// appending past silently dropped records would fabricate a journal
// that looks complete. The returned Journal holds everything already
// recorded (feed Completed() to the resumed study).
func OpenAppend(path string) (*Writer, *Journal, error) {
	j, end, err := scan(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := frame.Reopen(path, end)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: reopen: %w", err)
	}
	w := &Writer{f: f, FlushEvery: DefaultFlushEvery, marks: make(map[int]map[string]int), Metrics: obs.New(1)}
	for key, entries := range j.Entries {
		for _, e := range entries {
			w.mark(e.Worker, key, e.Ordinal)
		}
	}
	return w, j, nil
}

func (w *Writer) mark(shard int, campaign string, ordinal int) {
	if w.marks[shard] == nil {
		w.marks[shard] = make(map[string]int)
	}
	if cur, ok := w.marks[shard][campaign]; !ok || ordinal > cur {
		w.marks[shard][campaign] = ordinal
	}
}

// BeginCampaign records the start of a campaign and its total target
// count, flushed immediately.
func (w *Writer) BeginCampaign(c inject.Campaign, total int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("journal: write after close")
	}
	if err := w.appendLocked(&record{Kind: kindCampaign, Campaign: analysis.CampaignKey(c), Total: total}); err != nil {
		return err
	}
	return w.flushLocked()
}

// Put appends one completed injection result. Batches of FlushEvery
// results are flushed together with an index record and fsync'd.
func (w *Writer) Put(c inject.Campaign, worker, ordinal, total int, res inject.Result) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("journal: write after close")
	}
	key := analysis.CampaignKey(c)
	if err := w.appendLocked(&record{
		Kind: kindResult, Campaign: key, Worker: worker, Ordinal: ordinal, Result: &res,
	}); err != nil {
		return err
	}
	w.pendingN++
	w.mark(worker, key, ordinal)
	every := w.FlushEvery
	if every <= 0 {
		every = DefaultFlushEvery
	}
	if w.pendingN >= every {
		return w.flushLocked()
	}
	return nil
}

// Quarantine records a target abandoned after exhausted harness-fault
// retries. The frame is flushed immediately: a quarantined target
// means the harness just survived repeated faults, so its skip mark
// must not be lost to a later crash (a resume without it would re-run
// — and re-die on — the same poison target forever).
func (w *Writer) Quarantine(c inject.Campaign, worker, ordinal int, hf inject.HarnessFault) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("journal: write after close")
	}
	key := analysis.CampaignKey(c)
	if err := w.appendLocked(&record{
		Kind: kindQuarantine, Campaign: key, Worker: worker, Ordinal: ordinal, Fault: &hf,
	}); err != nil {
		return err
	}
	w.pendingN++
	w.mark(worker, key, ordinal)
	return w.flushLocked()
}

// Flush forces the buffered batch (plus an index record) to disk.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("journal: flush after close")
	}
	return w.flushLocked()
}

// appendLocked frames one record onto the pending batch.
func (w *Writer) appendLocked(rec *record) error {
	buf, err := frame.AppendRecord(w.pending, rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.pending = buf
	return nil
}

// flushLocked writes the pending batch and its index record, then
// fsyncs. On failure the batch stays pending.
func (w *Writer) flushLocked() error {
	if len(w.pending) == 0 {
		return nil
	}
	buf, err := frame.AppendRecord(w.pending, &record{Kind: kindIndex, Index: w.indexLocked()})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	w.pending = buf[:0]
	w.pendingN = 0
	w.Metrics.JournalFlush(len(buf))
	return nil
}

// indexLocked renders the high-water marks deterministically ordered.
func (w *Writer) indexLocked() []ShardMark {
	var out []ShardMark
	for shard, per := range w.marks {
		for key, ord := range per {
			out = append(out, ShardMark{Shard: shard, Campaign: key, Ordinal: ord})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Campaign < out[j].Campaign
	})
	return out
}

// Close drains the buffered batch, appends the trailing metrics
// snapshot (when given) and closes the file.
func (w *Writer) Close(trailer *obs.Snapshot) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var firstErr error
	if err := w.flushLocked(); err != nil {
		firstErr = err
	}
	if trailer != nil && firstErr == nil {
		buf, err := frame.AppendRecord(nil, &record{Kind: kindTrailer, Metrics: trailer})
		if err == nil {
			if _, err = w.f.Write(buf); err == nil {
				err = w.f.Sync()
			}
		}
		firstErr = err
	}
	if err := w.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Entry is one journaled result.
type Entry struct {
	Worker  int
	Ordinal int
	Result  inject.Result
}

// Journal is the decoded content of a journal file.
type Journal struct {
	Header  Header
	Totals  map[string]int // campaign key -> target count
	Entries map[string][]Entry
	// Quarantine maps campaign key -> ordinal -> the harness fault
	// that exhausted the target's retries. Quarantined ordinals are
	// skipped on resume and excluded from the reconstructed ResultSet.
	Quarantine map[string]map[int]inject.HarnessFault
	Marks      []ShardMark   // last flushed index
	Trailer    *obs.Snapshot // last trailer, if cleanly closed
	// Truncated reports that the file ended mid-record — a torn tail
	// from a crash or power loss; the intact prefix was recovered.
	Truncated bool
	// Frames counts the intact frames read (including the header).
	Frames int
}

// Read decodes a journal. A torn tail (crash mid-write) is tolerated
// — the intact prefix is returned with Truncated set. Mid-file
// corruption returns the intact prefix alongside a *CorruptError; the
// prefix must not be treated as the journal's full content.
func Read(path string) (*Journal, error) {
	j, _, err := scan(path)
	return j, err
}

// Sniff reports whether path starts with the journal magic.
func Sniff(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	buf := make([]byte, len(magic))
	if _, err := io.ReadFull(f, buf); err != nil {
		return false
	}
	return string(buf) == magic
}

// scan reads the intact record prefix and returns its end offset. On
// a *CorruptError the intact prefix is returned alongside it; callers
// must not treat that prefix as the journal's full content.
func scan(path string) (*Journal, int64, error) {
	j := &Journal{
		Totals:     make(map[string]int),
		Entries:    make(map[string][]Entry),
		Quarantine: make(map[string]map[int]inject.HarnessFault),
	}
	ext, err := frame.Scan(path, magic, func(i int, payload []byte) error {
		var rec record
		if err := frame.DecodeRecord(payload, &rec); err != nil {
			return err
		}
		if i > 0 {
			j.apply(&rec)
			return nil
		}
		if rec.Kind != kindHeader || rec.Header == nil {
			return errors.New("missing header record")
		}
		j.Header = *rec.Header
		return nil
	})
	j.Frames, j.Truncated = ext.Frames, ext.Torn
	var ce *CorruptError
	switch {
	case errors.As(err, &ce) && j.Frames > 0:
		return j, ext.End, err
	case err != nil:
		return nil, 0, err
	}
	return j, ext.End, nil
}

// VerifyReport is the result of fscking a journal with Verify.
type VerifyReport struct {
	Path        string
	Frames      int // intact frames (including the header)
	Results     int // distinct completed injections
	Quarantined int
	Campaigns   map[string]int // campaign key -> announced target total
	Truncated   bool           // torn tail (recoverable crash signature)
	Complete    bool           // every announced target accounted for
	Trailer     bool           // clean-close metrics trailer present
	// Corrupt is the first mid-file corruption found, nil when the
	// journal is sound (a torn tail alone is not corruption).
	Corrupt *CorruptError
}

// Verify fscks a journal: it walks every frame verifying lengths and
// CRC32C trailers and reports what it found. A torn tail is reported
// as Truncated (recoverable); mid-file corruption is reported in
// Corrupt with the exact frame index and offset. The error return is
// reserved for files that cannot be inspected at all (unreadable, not
// a journal, no header frame).
func Verify(path string) (*VerifyReport, error) {
	j, _, err := scan(path)
	var corrupt *CorruptError
	if err != nil && (!errors.As(err, &corrupt) || j == nil) {
		return nil, err
	}
	return &VerifyReport{
		Path:        path,
		Frames:      j.Frames,
		Results:     j.CompletedCount(),
		Quarantined: j.QuarantinedCount(),
		Campaigns:   j.Totals,
		Truncated:   j.Truncated,
		Complete:    corrupt == nil && j.Complete(),
		Trailer:     j.Trailer != nil,
		Corrupt:     corrupt,
	}, nil
}

func (j *Journal) apply(rec *record) {
	switch rec.Kind {
	case kindCampaign:
		if rec.Total > j.Totals[rec.Campaign] {
			j.Totals[rec.Campaign] = rec.Total
		}
	case kindResult:
		if rec.Result != nil {
			j.Entries[rec.Campaign] = append(j.Entries[rec.Campaign], Entry{
				Worker: rec.Worker, Ordinal: rec.Ordinal, Result: *rec.Result,
			})
		}
	case kindQuarantine:
		if rec.Fault != nil {
			if j.Quarantine[rec.Campaign] == nil {
				j.Quarantine[rec.Campaign] = make(map[int]inject.HarnessFault)
			}
			j.Quarantine[rec.Campaign][rec.Ordinal] = *rec.Fault
		}
	case kindIndex:
		j.Marks = rec.Index
	case kindTrailer:
		j.Trailer = rec.Metrics
	}
}

// Completed maps campaign key -> ordinal -> journaled result (the
// resumed study's skip set). Duplicate ordinals keep the last record.
func (j *Journal) Completed() map[string]map[int]inject.Result {
	out := make(map[string]map[int]inject.Result)
	for key, entries := range j.Entries {
		m := make(map[int]inject.Result, len(entries))
		for _, e := range entries {
			m[e.Ordinal] = e.Result
		}
		out[key] = m
	}
	return out
}

// CompletedCount is the number of distinct journaled injections.
func (j *Journal) CompletedCount() int {
	n := 0
	for _, m := range j.Completed() {
		n += len(m)
	}
	return n
}

// QuarantinedOrdinals maps campaign key -> ordinal -> true for every
// quarantined target (the resumed study's quarantine skip set).
func (j *Journal) QuarantinedOrdinals() map[string]map[int]bool {
	out := make(map[string]map[int]bool, len(j.Quarantine))
	for key, m := range j.Quarantine {
		set := make(map[int]bool, len(m))
		for ord := range m {
			set[ord] = true
		}
		out[key] = set
	}
	return out
}

// QuarantinedCount is the number of quarantined targets.
func (j *Journal) QuarantinedCount() int {
	n := 0
	for _, m := range j.Quarantine {
		n += len(m)
	}
	return n
}

// Complete reports whether every announced campaign has all of its
// targets accounted for — journaled as a result or quarantined.
func (j *Journal) Complete() bool {
	if len(j.Totals) == 0 {
		return false
	}
	done := j.Completed()
	for key, total := range j.Totals {
		n := len(done[key])
		for ord := range j.Quarantine[key] {
			if _, ok := done[key][ord]; !ok {
				n++
			}
		}
		if n < total {
			return false
		}
	}
	return true
}

// ResultSet reconstructs an analysis result set from the journal:
// completed results only, ordered by target ordinal, with quarantined
// ordinals recorded so reports state what was excluded. For a
// complete journal this is identical to the set the live study
// assembled.
func (j *Journal) ResultSet() *analysis.ResultSet {
	rs := &analysis.ResultSet{
		Version:    analysis.SchemaVersion,
		Seed:       j.Header.Seed,
		Scale:      j.Header.Scale,
		FaultModel: j.Header.FaultModel,
		Results:    make(map[string][]inject.Result),
	}
	for key, m := range j.Completed() {
		ords := make([]int, 0, len(m))
		for ord := range m {
			ords = append(ords, ord)
		}
		sort.Ints(ords)
		results := make([]inject.Result, 0, len(ords))
		for _, ord := range ords {
			results = append(results, m[ord])
		}
		rs.Results[key] = results
	}
	for key, m := range j.Quarantine {
		if len(m) == 0 {
			continue
		}
		if rs.Quarantined == nil {
			rs.Quarantined = make(map[string][]int)
		}
		ords := make([]int, 0, len(m))
		for ord := range m {
			ords = append(ords, ord)
		}
		sort.Ints(ords)
		rs.Quarantined[key] = ords
	}
	return rs
}
