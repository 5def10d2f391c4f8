package evloop

import (
	"io"
	"net"
	"sync/atomic"
	"time"

	"attain/internal/clock"
	"attain/internal/telemetry"
)

// Batch bounds how many events a Loop hands its handler at once: one
// drained swap is handled in chunks of at most Batch events.
const Batch = 256

// Sink is one connection's outbound frames waiting for its loop's next
// flush. Only the owning loop's goroutine touches it.
type Sink struct {
	W io.Writer
	// Owner is the connection the sink belongs to, for the loop's Failed.
	Owner   any
	pending [][]byte
	queued  bool
}

// Len reports how many frames wait on the sink.
func (s *Sink) Len() int { return len(s.pending) }

// Group is a set of sibling loops whose processed-message counts the
// imbalance probe compares.
type Group struct {
	imbalance *telemetry.Counter
	processed []*atomic.Uint64
}

// NewGroup builds an empty group reporting skew to imbalance.
func NewGroup(imbalance *telemetry.Counter) *Group {
	return &Group{imbalance: imbalance}
}

// observe bumps the imbalance counter when the busiest loop has processed
// more than twice the idlest, plus one batch of slack so short runs don't
// trip it.
func (g *Group) observe() {
	if g == nil || len(g.processed) < 2 {
		return
	}
	lo, hi := ^uint64(0), uint64(0)
	for _, p := range g.processed {
		n := p.Load()
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi > 2*lo+Batch {
		g.imbalance.Inc()
	}
}

// LoopConfig parameterizes a Loop. Its functions run on the loop's
// goroutine only.
type LoopConfig[T any] struct {
	// Capacity bounds the intake for blocking Push calls (<= 0: unbounded).
	Capacity int
	// Clock is read once per chunk.
	Clock clock.Clock
	// Name prefixes the loop's metrics in Telemetry (nil disables them):
	// Name.{msgs,batches,batch_size,queue_depth}, and Name.stalls when
	// Capacity bounds the intake.
	Telemetry *telemetry.Telemetry
	Name      string
	// Group, when set, gains the loop as a sibling for the imbalance probe.
	Group *Group

	// Handle handles one chunk of events stamped now and reports how many
	// of them were messages.
	Handle func(chunk []T, now time.Time) (msgs int)
	// Failed is told that a sink's flush stopped short: written of its
	// frames landed before err. Close reports the frames still pending with
	// written 0 and net.ErrClosed. Every frame is recycled by then.
	Failed func(s *Sink, frames, written int, err error)
	// Drop disposes of an event still queued when the loop closes.
	Drop func(T)
	// Recycle returns a frame buffer to its pool once written or dropped.
	Recycle func([]byte)
}

// Loop is one batch-draining event loop: producers push events onto its
// intake Queue; its single goroutine takes the whole queue per wakeup,
// hands it to Handle chunk by chunk, and after each chunk writes every
// touched Sink with one coalesced write.
type Loop[T any] struct {
	*Queue[T]
	cfg     LoopConfig[T]
	out     *Coalescer
	touched []*Sink
	// processed counts messages handled, read by sibling loops' probes.
	processed atomic.Uint64
	chunks    uint64

	msgs, batches *telemetry.Counter
	batchSize     *telemetry.Histogram
}

// NewLoop builds a loop; Run drives it.
func NewLoop[T any](cfg LoopConfig[T]) *Loop[T] {
	tele, name := cfg.Telemetry, cfg.Name
	qcfg := Config{Capacity: cfg.Capacity, Depth: tele.Gauge(name + ".queue_depth")}
	if cfg.Capacity > 0 {
		qcfg.Stalls = tele.Counter(name + ".stalls")
	}
	l := &Loop[T]{
		Queue:     NewQueue[T](qcfg),
		cfg:       cfg,
		out:       NewCoalescer(0),
		touched:   make([]*Sink, 0, 64),
		msgs:      tele.Counter(name + ".msgs"),
		batches:   tele.Counter(name + ".batches"),
		batchSize: tele.Histogram(name + ".batch_size"),
	}
	if cfg.Group != nil {
		cfg.Group.processed = append(cfg.Group.processed, &l.processed)
	}
	return l
}

// Run handles batches until stop closes and the intake is empty.
func (l *Loop[T]) Run(stop <-chan struct{}) {
	for l.RunOnce(stop) {
	}
}

// RunOnce waits for events and handles one swap's worth of them, one clock
// read and one Flush per chunk. It reports false, having handled nothing,
// once stop has closed and the intake is empty.
func (l *Loop[T]) RunOnce(stop <-chan struct{}) bool {
	events := l.Drain(stop)
	if events == nil {
		return false
	}
	for len(events) > 0 {
		n := min(len(events), Batch)
		msgs := l.cfg.Handle(events[:n], l.cfg.Clock.Now())
		events = events[n:]
		l.Flush()
		l.batchSize.Observe(int64(n))
		l.batches.Inc()
		l.msgs.Add(uint64(msgs))
		l.processed.Add(uint64(msgs))
		if l.chunks++; l.chunks%64 == 0 {
			l.cfg.Group.observe()
		}
	}
	return true
}

// Send queues frame on s for the next flush, taking ownership of it.
func (l *Loop[T]) Send(s *Sink, frame []byte) {
	s.pending = append(s.pending, frame)
	if !s.queued {
		s.queued = true
		l.touched = append(l.touched, s)
	}
}

// Discard recycles the frames waiting on s unsent.
func (l *Loop[T]) Discard(s *Sink) {
	for _, fr := range s.pending {
		l.cfg.Recycle(fr)
	}
	s.pending = s.pending[:0]
}

// Touched reports how many sinks wait for the next flush (diagnostic).
func (l *Loop[T]) Touched() int { return len(l.touched) }

// Flush writes every touched sink's frames with one coalesced write per
// sink, in the order the sinks were first sent to. Every chunk ends with
// one; a handler calls it earlier to put its frames on the wire before it
// blocks.
func (l *Loop[T]) Flush() { l.flush(nil) }

// Close stops the intake and recycles what the loop still holds: queued
// events go to Drop, pending frames fail as if written to a closed
// connection. Call it once Run has returned.
func (l *Loop[T]) Close() {
	for _, ev := range l.Queue.Close() {
		l.cfg.Drop(ev)
	}
	l.flush(closedWriter{})
}

// flush writes each touched sink to dst, or to its own W when dst is nil.
func (l *Loop[T]) flush(dst io.Writer) {
	for i, s := range l.touched {
		if n := len(s.pending); n > 0 {
			w := s.W
			if dst != nil {
				w = dst
			}
			if written, err := l.out.Flush(w, s.pending, l.cfg.Recycle); err != nil {
				l.cfg.Failed(s, n, written, err)
			}
			s.pending = s.pending[:0]
		}
		s.queued = false
		l.touched[i] = nil
	}
	l.touched = l.touched[:0]
}

type closedWriter struct{}

func (closedWriter) Write([]byte) (int, error) { return 0, net.ErrClosed }
