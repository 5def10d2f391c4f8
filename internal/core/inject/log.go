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
	"attain/internal/openflow"
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

// Stats is a snapshot of one connection's message counters (see
// connCounters, the record it reads).
type Stats struct {
	Seen       uint64
	Delivered  uint64
	Dropped    uint64
	Duplicated uint64
	// Delayed counts frames delivered late: one per outgoing frame that
	// DELAYMESSAGE held.
	Delayed   uint64
	Modified  uint64
	Fuzzed    uint64
	Injected  uint64
	RuleFires uint64
}

// typeCounts counts one loop's proxied messages by OpenFlow type byte; the
// last slot (noFrame) counts messages without a frame view (OPAQUE).
type typeCounts [noFrame + 1]atomic.Uint64

// Log is the injector's event log: a bounded in-memory record plus an
// optional streaming writer. Its counts read the injector's counters,
// which the loops update as they go.
type Log struct {
	mu     sync.Mutex
	events []Event
	max    int
	w      io.Writer
	// full is set once events holds max entries: Add keeps nothing more,
	// so with no writer an event would be built for nobody (Retains).
	full atomic.Bool
	// counters and types are the injector's, set by New and read-only
	// after: per-connection records and each loop's per-type counts.
	counters map[model.Conn]*connCounters
	types    []*typeCounts
}

// NewLog creates a log retaining up to max events in memory (0 means a
// generous default). Events are additionally streamed to w when non-nil.
func NewLog(max int, w io.Writer) *Log {
	if max <= 0 {
		max = 100_000
	}
	return &Log{max: max, w: w}
}

// Add appends an event.
func (l *Log) Add(e Event) {
	l.mu.Lock()
	if len(l.events) < l.max {
		l.events = append(l.events, e)
		l.full.Store(len(l.events) == l.max)
	}
	w := l.w
	l.mu.Unlock()
	if w != nil {
		fmt.Fprintln(w, e.String())
	}
}

// Retains reports whether Add would keep or write an event. Callers skip
// formatting an event's detail when it would not.
func (l *Log) Retains() bool { return l.w != nil || !l.full.Load() }

// Stats returns a snapshot of the counters for conn.
func (l *Log) Stats(conn model.Conn) Stats {
	if c, ok := l.counters[conn]; ok {
		return c.stats()
	}
	return Stats{}
}

// TotalStats sums counters across all connections.
func (l *Log) TotalStats() Stats {
	var t Stats
	for _, c := range l.counters {
		s := c.stats()
		t.Seen += s.Seen
		t.Delivered += s.Delivered
		t.Dropped += s.Dropped
		t.Duplicated += s.Duplicated
		t.Delayed += s.Delayed
		t.Modified += s.Modified
		t.Fuzzed += s.Fuzzed
		t.Injected += s.Injected
		t.RuleFires += s.RuleFires
	}
	return t
}

// MessageTypeCounts returns how many messages of each OpenFlow type were
// seen (the control-plane traffic metric of §VII-B). Only types seen
// appear; messages without a frame view count as OPAQUE.
func (l *Log) MessageTypeCounts() map[string]uint64 {
	out := make(map[string]uint64)
	for i := 0; i <= noFrame; i++ {
		var n uint64
		for _, tc := range l.types {
			n += tc[i].Load()
		}
		if n == 0 {
			continue
		}
		name := "OPAQUE"
		if i < noFrame {
			name = openflow.Type(i).String()
		}
		out[name] = n
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
