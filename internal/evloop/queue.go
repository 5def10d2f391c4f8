// Package evloop is the repo's one batch-draining event loop. Loop[T]
// drains an intake Queue[T] by swap, hands the events to its caller's
// handler in chunks of Batch with one clock read per chunk, keeps the
// per-loop telemetry and the imbalance probe across a Group of sibling
// loops, and writes every touched Sink (one connection's pending frames)
// with one coalesced write per chunk. The injector's shard core
// (internal/core/inject) and the shard-hosted switch simulator
// (internal/switchsim.Host) both run on it and supply only their event
// semantics.
//
// The queue's contract:
//
//   - Producers Push (blocking when the queue is at capacity — the
//     backpressure a bounded channel would provide) or PushNoWait
//     (unconditional append; for cross-loop deliveries where blocking one
//     loop on another's backpressure could deadlock a delivery cycle).
//   - The single consumer Drains the whole queue in one slice swap
//     (intake/spare ping-pong, so steady state allocates neither) and
//     processes it as a batch.
//   - Close marks the queue stopped and hands back whatever was queued so
//     the owner can recycle pooled buffers.
package evloop

import (
	"sync"

	"attain/internal/telemetry"
)

// Config parameterizes a Queue. All fields are optional: Capacity <= 0
// means Push never blocks, and the telemetry handles are nil-safe.
type Config struct {
	// Capacity bounds the intake queue for blocking Push calls; PushNoWait
	// ignores it. <= 0 disables backpressure.
	Capacity int
	// Stalls is bumped each time a Push blocks waiting for space.
	Stalls *telemetry.Counter
	// Depth tracks the intake queue length after each push, reset to 0 on
	// each drain swap.
	Depth *telemetry.Gauge
}

// Queue is the cross-goroutine intake of one event loop. Any number of
// producers may push; exactly one consumer goroutine drains.
type Queue[T any] struct {
	mu      sync.Mutex
	space   *sync.Cond
	intake  []T
	spare   []T
	stopped bool
	// wake holds one token so signaling a busy loop is free and the token
	// is never lost.
	wake chan struct{}
	cfg  Config
}

// NewQueue builds a queue. The initial intake/spare capacity follows
// cfg.Capacity (defaulting to a small slice when unbounded).
func NewQueue[T any](cfg Config) *Queue[T] {
	prealloc := cfg.Capacity
	if prealloc <= 0 {
		prealloc = 64
	}
	q := &Queue[T]{
		intake: make([]T, 0, prealloc),
		spare:  make([]T, 0, prealloc),
		wake:   make(chan struct{}, 1),
		cfg:    cfg,
	}
	q.space = sync.NewCond(&q.mu)
	return q
}

// signal wakes the consumer if it is (or is about to start) waiting.
func (q *Queue[T]) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Push appends v, blocking while the queue is at capacity (backpressure
// toward the producer). It reports false once the queue has stopped; the
// caller keeps ownership of v then.
func (q *Queue[T]) Push(v T) bool {
	q.mu.Lock()
	for q.cfg.Capacity > 0 && len(q.intake) >= q.cfg.Capacity && !q.stopped {
		q.cfg.Stalls.Inc()
		q.space.Wait()
	}
	if q.stopped {
		q.mu.Unlock()
		return false
	}
	q.intake = append(q.intake, v)
	wasEmpty := len(q.intake) == 1
	q.cfg.Depth.Set(int64(len(q.intake)))
	q.mu.Unlock()
	if wasEmpty {
		q.signal()
	}
	return true
}

// PushNoWait appends v without ever blocking, ignoring capacity. Use it
// from other event loops (or any context that must not stall): writes never
// expand into more work, so the overshoot is bounded by in-flight traffic.
// Reports false once the queue has stopped.
func (q *Queue[T]) PushNoWait(v T) bool {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return false
	}
	q.intake = append(q.intake, v)
	wasEmpty := len(q.intake) == 1
	q.cfg.Depth.Set(int64(len(q.intake)))
	q.mu.Unlock()
	if wasEmpty {
		q.signal()
	}
	return true
}

// PushQuiet appends v without blocking and without updating the depth
// gauge — for internal bookkeeping events (barriers) that should not
// perturb queue-depth telemetry. Reports false once stopped.
func (q *Queue[T]) PushQuiet(v T) bool {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return false
	}
	q.intake = append(q.intake, v)
	wasEmpty := len(q.intake) == 1
	q.mu.Unlock()
	if wasEmpty {
		q.signal()
	}
	return true
}

// Drain blocks until events are queued, then takes the whole queue in one
// swap. When stop closes while waiting, the queue is marked stopped,
// blocked producers are released, and draining continues until the queue
// is empty; Drain then returns nil. The returned slice is valid until the
// next Drain call.
func (q *Queue[T]) Drain(stop <-chan struct{}) []T {
	q.mu.Lock()
	for len(q.intake) == 0 {
		if q.stopped {
			q.mu.Unlock()
			return nil
		}
		q.mu.Unlock()
		select {
		case <-q.wake:
		case <-stop:
			// Mark stopped and keep draining whatever is queued; the next
			// pass through an empty queue exits.
			q.mu.Lock()
			q.stopped = true
			q.mu.Unlock()
			q.space.Broadcast()
		}
		q.mu.Lock()
	}
	batch := q.intake
	q.intake = q.spare[:0]
	q.spare = batch
	q.cfg.Depth.Set(0)
	q.mu.Unlock()
	q.space.Broadcast()
	return batch
}

// Close marks the queue stopped, releases blocked producers and the
// consumer, and returns whatever was still queued so the owner can recycle
// pooled resources. Safe to call more than once; later calls return nil.
func (q *Queue[T]) Close() []T {
	q.mu.Lock()
	q.stopped = true
	intake := q.intake
	q.intake = nil
	q.mu.Unlock()
	q.space.Broadcast()
	q.signal()
	return intake
}

// Stopped reports whether the queue has been closed (by Close or by a
// stop-channel close observed during Drain).
func (q *Queue[T]) Stopped() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stopped
}

// Len reports the current intake depth (diagnostic; racy by nature).
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.intake)
}
