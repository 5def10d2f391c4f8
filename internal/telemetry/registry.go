package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The nil *Counter
// is the disabled counter: Inc and Add no-op, Value returns 0. Resolve
// counters by name once (Registry.Counter) and keep the pointer; updates
// are a single atomic add.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Name returns the counter's registered name ("" when nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry holds named counters, gauges, and histograms. Lookup is locked;
// the metrics themselves are lock-free. The nil *Registry hands out nil
// metrics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	metrics  metricsRegistry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.adopt(name, nil)
}

// adopt returns the counter registered under name, registering c (a new
// counter when c is nil) if the name is free.
func (r *Registry) adopt(name string, c *Counter) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.counters[name]; ok {
		return old
	}
	if c == nil {
		c = new(Counter)
	}
	c.name = name
	r.counters[name] = c
	return c
}

// Names returns the registered counter names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the current value of every counter by name, plus gauge
// levels and histogram summaries (see metricsSnapshot).
func (r *Registry) Snapshot() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	r.mu.Unlock()
	r.metricsSnapshot(out)
	return out
}

// WriteText writes "name value" lines sorted by name — a stable textual
// rendering for summaries and artifacts.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", name, snap[name]); err != nil {
			return err
		}
	}
	return nil
}
