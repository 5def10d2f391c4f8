package netem

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"attain/internal/clock"
)

// TestLinkFabricScaleStress drives hundreds of concurrent links — the
// fabric-runtime shape — and verifies frame accounting, teardown, and
// goroutine hygiene: after Close on every link, the process returns to its
// pre-test goroutine count (no leaked delivery goroutines, no stuck
// receivers).
func TestLinkFabricScaleStress(t *testing.T) {
	const (
		links          = 300
		framesPerLink  = 20
		sendersPerLink = 2
	)
	clk := clock.New()
	before := runtime.NumGoroutine()

	var delivered atomic.Uint64
	all := make([]*Link, links)
	for i := range all {
		all[i] = NewLink(clk, LinkConfig{QueueLen: 64, LossSeed: int64(i + 1)})
		all[i].A().SetReceiver(func([]byte) { delivered.Add(1) })
		all[i].B().SetReceiver(func([]byte) { delivered.Add(1) })
	}

	var wg sync.WaitGroup
	frame := []byte("stress-frame")
	for _, l := range all {
		for s := 0; s < sendersPerLink; s++ {
			wg.Add(2)
			go func(p *Port) {
				defer wg.Done()
				for f := 0; f < framesPerLink; f++ {
					p.Send(frame)
				}
			}(l.A())
			go func(p *Port) {
				defer wg.Done()
				for f := 0; f < framesPerLink; f++ {
					p.Send(frame)
				}
			}(l.B())
		}
	}
	wg.Wait()

	// Drain: every enqueued frame must eventually be delivered (zero-loss,
	// zero-latency config; queues were large enough that drops only happen
	// under pathological scheduling, which the accounting below tolerates).
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var enq, dropped uint64
		for _, l := range all {
			sa, sb := l.StatsA2B(), l.StatsB2A()
			enq += sa.Enqueued + sb.Enqueued
			dropped += sa.Dropped + sb.Dropped
		}
		if delivered.Load() == enq {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	var enq, dropped uint64
	for _, l := range all {
		sa, sb := l.StatsA2B(), l.StatsB2A()
		enq += sa.Enqueued + sb.Enqueued
		dropped += sa.Dropped + sb.Dropped
	}
	if enq+dropped != links*framesPerLink*sendersPerLink*2 {
		t.Fatalf("accounting: enqueued %d + dropped %d != sent %d",
			enq, dropped, links*framesPerLink*sendersPerLink*2)
	}
	if delivered.Load() != enq {
		t.Fatalf("delivered %d != enqueued %d after drain", delivered.Load(), enq)
	}

	for _, l := range all {
		l.Close()
	}
	// Close is synchronous per link, but receiver callbacks finishing and
	// runtime bookkeeping can lag; poll for the goroutine count to settle.
	waitGoroutines(t, before)
}

// TestLinkIdleCostsNoGoroutines pins the lazy-start contract the fabric
// runtime depends on: instantiating links spawns nothing until traffic
// flows.
func TestLinkIdleCostsNoGoroutines(t *testing.T) {
	clk := clock.New()
	before := runtime.NumGoroutine()
	all := make([]*Link, 500)
	for i := range all {
		all[i] = NewLink(clk, LinkConfig{})
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("idle links spawned goroutines: %d -> %d", before, after)
	}
	// Close before first use must not hang.
	done := make(chan struct{})
	go func() {
		for _, l := range all {
			l.Close()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on never-used links")
	}
	// A closed, never-started link drops frames instead of starting.
	l := NewLink(clk, LinkConfig{})
	l.Close()
	l.A().Send([]byte("late"))
	if st := l.StatsA2B(); st.Dropped != 1 || st.Enqueued != 0 {
		t.Fatalf("send after close: stats %+v, want 1 drop", st)
	}
	waitGoroutines(t, before)
}

// TestLinkDrainedCostsNoGoroutines: a direction runs its delivery
// goroutine only while frames are in flight, so once traffic drains the
// goroutine count is back at its baseline with every link still open.
func TestLinkDrainedCostsNoGoroutines(t *testing.T) {
	clk := clock.New()
	before := runtime.NumGoroutine()
	var delivered atomic.Int64
	all := make([]*Link, 100)
	for i := range all {
		all[i] = NewLink(clk, LinkConfig{Latency: time.Millisecond, BandwidthBps: Mbps(100)})
		all[i].A().SetReceiver(func([]byte) { delivered.Add(1) })
		all[i].B().SetReceiver(func([]byte) { delivered.Add(1) })
		all[i].A().Send([]byte("a-to-b"))
		all[i].B().Send([]byte("b-to-a"))
	}
	defer func() {
		for _, l := range all {
			l.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < int64(2*len(all)) {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d frames", delivered.Load(), 2*len(all))
		}
		time.Sleep(time.Millisecond)
	}
	waitGoroutines(t, before)
}

// TestMemTransportConcurrentSessions exercises the in-memory transport
// with hundreds of concurrent dial/accept/serve/close cycles, the
// control-plane shape of a large fabric, and checks the listener table
// empties on teardown.
func TestMemTransportConcurrentSessions(t *testing.T) {
	tr := NewMemTransport()
	before := runtime.NumGoroutine()

	ln, err := tr.Listen("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	var served sync.WaitGroup
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			go func(c net.Conn) {
				defer served.Done()
				defer c.Close()
				buf := make([]byte, 8)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	const dialers = 300
	var wg sync.WaitGroup
	errs := make(chan error, dialers)
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := tr.Dial("ctrl")
			if err != nil {
				errs <- fmt.Errorf("dial %d: %w", i, err)
				return
			}
			defer c.Close()
			msg := []byte("ping")
			if _, err := c.Write(msg); err != nil {
				errs <- fmt.Errorf("write %d: %w", i, err)
				return
			}
			buf := make([]byte, len(msg))
			if _, err := c.Read(buf); err != nil {
				errs <- fmt.Errorf("read %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ln.Close()
	served.Wait()
	tr.mu.Lock()
	n := len(tr.listeners)
	tr.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d listeners leaked after Close", n)
	}
	if _, err := tr.Dial("ctrl"); err == nil {
		t.Fatal("Dial succeeded after listener Close")
	}
	waitGoroutines(t, before)
}

// waitGoroutines polls until the goroutine count returns to within a small
// slack of base (the runtime occasionally keeps helpers alive briefly).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: base %d, now %d\n%s", base, runtime.NumGoroutine(), buf[:n])
}
