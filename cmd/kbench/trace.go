package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call kbench made into a layer of the harness.
type span struct {
	ID       int               `json:"id"`
	Parent   int               `json:"parent"` // 0 = root
	Name     string            `json:"name"`
	Start    time.Duration     `json:"start_ns"` // since the trace began
	End      time.Duration     `json:"end_ns"`
	Workload string            `json:"workload"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Self     time.Duration     `json:"self_ns"` // End-Start minus the time child spans cover
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// It is safe for concurrent use (the supervisor probe calls from two
// goroutines).
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, Workload: t.workload})
	return len(t.spans)
}

// end closes span id, attaching attrs given as key, value pairs, and
// returns its duration.
func (t *tracer) end(id int, attrs ...string) time.Duration {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if len(attrs) > 0 {
		s.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			s.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	return s.dur()
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	return t.spans
}

// writeSpans writes finished spans as one JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sets each span's Self to its duration minus the union of
// its children's intervals, clipped to its own: children of one parent
// may overlap when they ran on different goroutines.
func selfTimes(spans []span) {
	kids := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			kids[p] = append(kids[p], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		var iv [][2]time.Duration
		for _, k := range kids[s.ID] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, reach time.Duration
		for _, v := range iv {
			if v[0] > reach {
				reach = v[0]
			}
			if v[1] > reach {
				covered += v[1] - reach
				reach = v[1]
			}
		}
		s.Self = s.dur() - covered
	}
}

// sample is a set of measurements of one quantity.
type sample []float64

func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

func (s sample) sum() float64 {
	var t float64
	for _, x := range s {
		t += x
	}
	return t
}

// percentile interpolates linearly between the closest ranks of sorted
// data; it is 0 for an empty sample.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func (s sample) median() float64 { return s.sorted().percentile(0.5) }

// tail is the highest of p99, p90 and p75 that still has at least ten
// samples beyond it, named; with fewer than that it is the maximum.
func (s sample) tail() (float64, string) {
	c := s.sorted()
	for _, p := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.90, "p90"}, {0.75, "p75"}} {
		v := c.percentile(p.q)
		above := sort.Search(len(c), func(i int) bool { return c[i] > v })
		if len(c)-above >= 10 {
			return v, p.name
		}
	}
	if len(c) == 0 {
		return 0, "none"
	}
	return c[len(c)-1], "max"
}
