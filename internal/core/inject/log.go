// Package inject implements the ATTAIN runtime injector (paper §VI-B2): a
// control-plane connection proxy that terminates switch connections and
// dials the real controllers, a single-threaded attack executor implementing
// Algorithm 1 (imposing a total order on control-plane events), the message
// modifier that actuates attacker capabilities on the outgoing message list,
// and a structured event log for later analysis.
package inject

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"attain/internal/core/model"
)

// EventKind classifies log events.
type EventKind int

// Event kinds.
const (
	// EventMessage records one proxied control-plane message.
	EventMessage EventKind = iota + 1
	// EventRule records a rule whose conditional matched (rule
	// notification, §VII-A2).
	EventRule
	// EventState records a state transition.
	EventState
	// EventConn records a proxy session opening or closing.
	EventConn
	// EventSysCmd records a SYSCMD dispatch.
	EventSysCmd
	// EventError records a runtime error.
	EventError
)

func (k EventKind) String() string {
	switch k {
	case EventMessage:
		return "MSG"
	case EventRule:
		return "RULE"
	case EventState:
		return "STATE"
	case EventConn:
		return "CONN"
	case EventSysCmd:
		return "SYSCMD"
	case EventError:
		return "ERROR"
	default:
		return "?"
	}
}

// Event is one log record.
type Event struct {
	At        time.Time
	Kind      EventKind
	Conn      model.Conn
	Direction string
	MsgType   string
	Detail    string
}

// String renders one log line.
func (e Event) String() string {
	return fmt.Sprintf("%s %-6s %s %s %s %s",
		e.At.Format("15:04:05.000"), e.Kind, e.Conn, e.Direction, e.MsgType, e.Detail)
}

// Stats aggregates per-connection message counters.
type Stats struct {
	Seen       uint64
	Delivered  uint64
	Dropped    uint64
	Duplicated uint64
	Delayed    uint64
	Modified   uint64
	Fuzzed     uint64
	Injected   uint64
	RuleFires  uint64
}

// Log is the injector's event log: a bounded in-memory record plus an
// optional streaming writer, with per-connection counters.
type Log struct {
	mu     sync.Mutex
	events []Event
	max    int
	w      io.Writer
	stats  map[model.Conn]*Stats
	byType map[string]uint64
	// full is set once events holds max entries: Add keeps nothing more,
	// so with no writer an event would be built for nobody (Retains).
	full atomic.Bool
}

// NewLog creates a log retaining up to max events in memory (0 means a
// generous default). Events are additionally streamed to w when non-nil.
func NewLog(max int, w io.Writer) *Log {
	if max <= 0 {
		max = 100_000
	}
	return &Log{
		max:    max,
		w:      w,
		stats:  make(map[model.Conn]*Stats),
		byType: make(map[string]uint64),
	}
}

// Add appends an event.
func (l *Log) Add(e Event) {
	l.mu.Lock()
	if len(l.events) < l.max {
		l.events = append(l.events, e)
		l.full.Store(len(l.events) == l.max)
	}
	if e.Kind == EventMessage {
		l.byType[e.MsgType]++
	}
	w := l.w
	l.mu.Unlock()
	if w != nil {
		fmt.Fprintln(w, e.String())
	}
}

// Retains reports whether Add would keep or write an event that is not an
// EventMessage (whose per-type count Add always takes). Callers skip
// formatting an event's detail when it would not.
func (l *Log) Retains() bool { return l.w != nil || !l.full.Load() }

// Count atomically updates a counter for conn.
func (l *Log) Count(conn model.Conn, update func(*Stats)) {
	l.mu.Lock()
	st, ok := l.stats[conn]
	if !ok {
		st = &Stats{}
		l.stats[conn] = st
	}
	update(st)
	l.mu.Unlock()
}

// StatsRef returns the live stats record for conn, creating it on first
// use. The pointer is stable for the log's lifetime; mutate it only under
// the log's lock via CountRef or CountBatch. Sessions resolve their record
// once at open so the per-message path skips the map lookup.
func (l *Log) StatsRef(conn model.Conn) *Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.stats[conn]
	if !ok {
		st = &Stats{}
		l.stats[conn] = st
	}
	return st
}

// CountRef is Count for a pre-resolved StatsRef record: same lock, no map
// lookup.
func (l *Log) CountRef(st *Stats, update func(*Stats)) {
	l.mu.Lock()
	update(st)
	l.mu.Unlock()
}

// CountBatch runs fn under the stats lock. fn may mutate any number of
// StatsRef records and add to the per-type message counts through the map
// it receives (the lean-log path keeps MessageTypeCounts accurate this way
// while skipping per-message events) — one lock round-trip publishes a
// whole batch of bookkeeping that Count would pay per message.
func (l *Log) CountBatch(fn func(types map[string]uint64)) {
	l.mu.Lock()
	fn(l.byType)
	l.mu.Unlock()
}

// Stats returns a snapshot of the counters for conn.
func (l *Log) Stats(conn model.Conn) Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.stats[conn]; ok {
		return *st
	}
	return Stats{}
}

// TotalStats sums counters across all connections.
func (l *Log) TotalStats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total Stats
	for _, st := range l.stats {
		total.add(st)
	}
	return total
}

// add accumulates d into s.
func (s *Stats) add(d *Stats) {
	s.Seen += d.Seen
	s.Delivered += d.Delivered
	s.Dropped += d.Dropped
	s.Duplicated += d.Duplicated
	s.Delayed += d.Delayed
	s.Modified += d.Modified
	s.Fuzzed += d.Fuzzed
	s.Injected += d.Injected
	s.RuleFires += d.RuleFires
}

// MessageTypeCounts returns how many messages of each OpenFlow type were
// seen (the control-plane traffic metric of §VII-B).
func (l *Log) MessageTypeCounts() map[string]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]uint64, len(l.byType))
	for k, v := range l.byType {
		out[k] = v
	}
	return out
}

// Events returns a snapshot of the in-memory events, optionally filtered by
// kind (pass 0 for all).
func (l *Log) Events(kind EventKind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, e := range l.events {
		if kind == 0 || e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}
