package evloop

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"attain/internal/telemetry"
)

func TestQueuePushDrain(t *testing.T) {
	q := NewQueue[int](Config{Capacity: 8})
	stop := make(chan struct{})
	for i := 0; i < 5; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected", i)
		}
	}
	batch := q.Drain(stop)
	if len(batch) != 5 {
		t.Fatalf("drained %d events, want 5", len(batch))
	}
	for i, v := range batch {
		if v != i {
			t.Fatalf("batch[%d] = %d, want %d (order must be FIFO)", i, v, i)
		}
	}
	// The spare slice ping-pong: a second fill must reuse capacity, and the
	// previous batch slice stays valid until this Drain.
	for i := 10; i < 13; i++ {
		q.Push(i)
	}
	batch2 := q.Drain(stop)
	if len(batch2) != 3 || batch2[0] != 10 {
		t.Fatalf("second drain = %v, want [10 11 12]", batch2)
	}
}

func TestQueueBackpressure(t *testing.T) {
	stalls := telemetry.New(telemetry.Options{}).Counter("stalls")
	q := NewQueue[int](Config{Capacity: 2, Stalls: stalls})
	q.Push(1)
	q.Push(2)

	unblocked := make(chan struct{})
	go func() {
		q.Push(3) // must block until a drain frees space
		close(unblocked)
	}()

	select {
	case <-unblocked:
		t.Fatal("push past capacity did not block")
	case <-time.After(20 * time.Millisecond):
	}

	stop := make(chan struct{})
	if got := q.Drain(stop); len(got) != 2 {
		t.Fatalf("drained %d, want 2", len(got))
	}
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked push not released by drain")
	}
	if stalls.Value() == 0 {
		t.Fatal("stall counter not bumped by blocked push")
	}
	if got := q.Drain(stop); len(got) != 1 || got[0] != 3 {
		t.Fatalf("final drain = %v, want [3]", got)
	}
}

func TestQueuePushNoWaitIgnoresCapacity(t *testing.T) {
	q := NewQueue[int](Config{Capacity: 1})
	q.Push(1)
	for i := 0; i < 100; i++ {
		if !q.PushNoWait(i) {
			t.Fatalf("PushNoWait %d rejected on live queue", i)
		}
	}
	if q.Len() != 101 {
		t.Fatalf("queue depth %d, want 101", q.Len())
	}
}

func TestQueueStopWhileWaiting(t *testing.T) {
	q := NewQueue[int](Config{})
	stop := make(chan struct{})
	done := make(chan []int, 1)
	go func() { done <- q.Drain(stop) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	select {
	case batch := <-done:
		if batch != nil {
			t.Fatalf("drain on stop = %v, want nil", batch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain did not observe stop close")
	}
	if !q.Stopped() {
		t.Fatal("queue not marked stopped after stop close")
	}
	if q.Push(1) {
		t.Fatal("push accepted after stop")
	}
	if q.PushNoWait(1) {
		t.Fatal("PushNoWait accepted after stop")
	}
}

func TestQueueStopDrainsBacklog(t *testing.T) {
	// Events queued before the stop close must still drain: Drain keeps
	// handing out batches until the queue is empty, then returns nil.
	q := NewQueue[int](Config{})
	stop := make(chan struct{})
	close(stop)
	q.Push(1)
	q.Push(2)
	if got := q.Drain(stop); len(got) != 2 {
		t.Fatalf("backlog drain = %v, want 2 events", got)
	}
	if got := q.Drain(stop); got != nil {
		t.Fatalf("post-backlog drain = %v, want nil", got)
	}
}

func TestQueueCloseReturnsRemainder(t *testing.T) {
	q := NewQueue[int](Config{})
	q.Push(7)
	q.Push(8)
	rem := q.Close()
	if len(rem) != 2 || rem[0] != 7 || rem[1] != 8 {
		t.Fatalf("close remainder = %v, want [7 8]", rem)
	}
	if q.Close() != nil {
		t.Fatal("second close must return nil")
	}
	if got := q.Drain(make(chan struct{})); got != nil {
		t.Fatalf("drain after close = %v, want nil", got)
	}
}

func TestQueueCloseReleasesBlockedProducers(t *testing.T) {
	q := NewQueue[int](Config{Capacity: 1})
	q.Push(1)
	var wg sync.WaitGroup
	rejected := make([]bool, 4)
	for i := range rejected {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rejected[i] = !q.Push(100 + i)
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked producers not released by Close")
	}
	for i, r := range rejected {
		if !r {
			t.Fatalf("producer %d push accepted after close", i)
		}
	}
}

func TestQueueConcurrentProducers(t *testing.T) {
	q := NewQueue[int](Config{Capacity: 64})
	stop := make(chan struct{})
	const producers, per = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push(i)
			}
		}()
	}
	got := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for got < producers*per {
		select {
		case <-done:
			// Every producer is done: drain the tail without blocking.
			closed := make(chan struct{})
			close(closed)
			for batch := q.Drain(closed); batch != nil; batch = q.Drain(closed) {
				got += len(batch)
			}
			if got != producers*per {
				t.Fatalf("drained %d, want %d", got, producers*per)
			}
			return
		default:
			got += len(q.Drain(stop))
		}
	}
	if got != producers*per {
		t.Fatalf("drained %d, want %d", got, producers*per)
	}
}

func TestCoalescerSingleWrite(t *testing.T) {
	c := NewCoalescer(1 << 20)
	var dst writeCounter
	recycled := 0
	frames := [][]byte{[]byte("abc"), []byte("defg"), []byte("h")}
	n, err := c.Flush(&dst, frames, func([]byte) { recycled++ })
	if err != nil || n != 3 {
		t.Fatalf("flush = (%d, %v), want (3, nil)", n, err)
	}
	if dst.calls != 1 {
		t.Fatalf("coalesced flush made %d writes, want 1", dst.calls)
	}
	if dst.buf.String() != "abcdefgh" {
		t.Fatalf("flushed bytes = %q", dst.buf.String())
	}
	if recycled != 3 {
		t.Fatalf("recycled %d frames, want 3", recycled)
	}
}

func TestCoalescerChunkBoundary(t *testing.T) {
	c := NewCoalescer(8)
	var dst writeCounter
	frames := [][]byte{make([]byte, 5), make([]byte, 5), make([]byte, 5)}
	n, err := c.Flush(&dst, frames, nil)
	if err != nil || n != 3 {
		t.Fatalf("flush = (%d, %v), want (3, nil)", n, err)
	}
	if dst.calls != 3 {
		t.Fatalf("chunked flush made %d writes, want 3 (5+5 > 8 splits)", dst.calls)
	}
	// A frame larger than the chunk still goes out whole: chunking bounds
	// coalescing, it does not split frames.
	dst = writeCounter{}
	n, err = c.Flush(&dst, [][]byte{make([]byte, 32)}, nil)
	if err != nil || n != 1 || dst.calls != 1 || dst.buf.Len() != 32 {
		t.Fatalf("oversize frame flush = (%d, %v, %d writes, %d bytes)", n, err, dst.calls, dst.buf.Len())
	}
}

func TestCoalescerWriteError(t *testing.T) {
	c := NewCoalescer(4)
	dst := &writeCounter{failAfter: 1}
	recycled := 0
	frames := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 4)}
	n, err := c.Flush(dst, frames, func([]byte) { recycled++ })
	if err == nil {
		t.Fatal("flush swallowed the write error")
	}
	if n != 1 {
		t.Fatalf("written = %d, want 1 (first chunk landed)", n)
	}
	if recycled != 3 {
		t.Fatalf("recycled %d frames, want all 3 even on error", recycled)
	}
}

type writeCounter struct {
	buf       bytes.Buffer
	calls     int
	failAfter int // fail writes after this many successes; 0 = never
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.calls++
	if w.failAfter > 0 && w.calls > w.failAfter {
		return 0, errors.New("synthetic write failure")
	}
	return w.buf.Write(p)
}
