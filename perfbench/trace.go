package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// (a sweep or a request) share op; parent is the index of the enclosing
// span, -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and named samples in memory; write dumps the spans
// when the run ends. A nil *tracer records nothing, which is how untraced
// phases run the same code.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	samples map[string][]float64
	extra   map[string]any // cross-check snapshots written beside the spans
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, extra: map[string]any{}}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// record adds a closed span whose boundaries were observed as gaps between
// other calls.
func (t *tracer) record(op, parent int, name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// sample appends one value to a named series.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) series(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

func (t *tracer) sum(name string) float64 {
	s := 0.0
	for _, v := range t.series(name) {
		s += v
	}
	return s
}

func (t *tracer) note(key string, v any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.extra[key] = v
	t.mu.Unlock()
}

// selfByName returns each span name's summed self time in ms: a span's
// duration minus the part of it its children cover.
func (t *tracer) selfByName() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		out[s.Name] += float64(s.End-s.Start-t.covered(s, children[i])) / 1e6
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent.
func (t *tracer) covered(p span, kids []int) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		c := t.spans[k]
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// durations returns the durations (ms) of every closed span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write dumps the spans as JSON lines, preceded by one line of cross-check
// snapshots.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	err = enc.Encode(map[string]any{"crosscheck": t.extra})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runtimeCounters are the runtime/metrics values the go.* rows difference.
type runtimeCounters struct {
	allocBytes float64
	gcPauseSec float64 // approximate: histogram bucket midpoints
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	var rc runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		rc.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if n == 0 || lo < 0 {
				continue
			}
			mid := lo
			if hi < 1e9 && hi > lo { // the last bucket is unbounded
				mid = (lo + hi) / 2
			}
			rc.gcPauseSec += float64(n) * mid
		}
	}
	return rc
}
