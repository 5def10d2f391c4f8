package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Spans are recorded
// only in a -trace run, from the harness side of each layer boundary; the
// program under test is not instrumented.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root
	Workload string  `json:"workload"`
	Name     string  `json:"name"` // "<layer>.<call>"
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// tracer records nothing, so untraced runs pay one pointer check per call.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent (0 for a root span) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := us(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload,
		Name: name, StartUS: now, EndUS: -1,
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := us(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took; it is the
// one-line form for a call whose duration is also a metric.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// spanSelf is one span name's self time.
type spanSelf struct {
	name string
	us   float64
}

// selfTimes returns, per span name, the summed duration minus the part
// covered by child spans, largest first.
func (t *tracer) selfTimes() []spanSelf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.EndUS >= 0 && s.Parent != 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	byName := make(map[string]float64)
	for _, s := range t.spans {
		if s.EndUS >= 0 {
			byName[s.Name] += s.EndUS - s.StartUS - child[s.ID]
		}
	}
	out := make([]spanSelf, 0, len(byName))
	for name, v := range byName {
		out = append(out, spanSelf{name, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].us > out[j].us })
	return out
}

// write stores the spans as JSON lines in dir/trace-<workload>.jsonl.
func (t *tracer) write(dir string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+t.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
