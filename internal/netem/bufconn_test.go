package netem

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestBufConnRoundTrip(t *testing.T) {
	a, b := newBufConnPair(64)
	msg := []byte("hello, fabric")
	go func() {
		if _, err := a.Write(msg); err != nil {
			t.Error(err)
		}
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

// TestBufConnWriteDoesNotRendezvous pins the property the sharded flush
// relies on: a write smaller than the ring returns without a concurrent
// reader.
func TestBufConnWriteDoesNotRendezvous(t *testing.T) {
	a, b := newBufConnPair(1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := a.Write(make([]byte, 512)); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("buffered write blocked without a reader")
	}
	got, err := io.ReadAll(io.LimitReader(b, 512))
	if err != nil || len(got) != 512 {
		t.Fatalf("read %d bytes, err %v", len(got), err)
	}
}

// TestBufConnBackpressure pins that writes beyond the ring capacity block
// until the reader drains, then complete.
func TestBufConnBackpressure(t *testing.T) {
	a, b := newBufConnPair(16)
	wrote := make(chan error, 1)
	go func() {
		_, err := a.Write(make([]byte, 64))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("oversized write returned early (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := io.ReadFull(b, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}

// TestBufConnWrapAround pushes several ring lengths of data through a tiny
// ring to exercise start/wrap arithmetic.
func TestBufConnWrapAround(t *testing.T) {
	a, b := newBufConnPair(7)
	const total = 1000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if _, err := a.Write([]byte{byte(i), byte(i >> 8)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	buf := make([]byte, 2)
	for i := 0; i < total; i++ {
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) || buf[1] != byte(i>>8) {
			t.Fatalf("frame %d corrupted: % x", i, buf)
		}
	}
	wg.Wait()
}

func TestBufConnCloseSemantics(t *testing.T) {
	a, b := newBufConnPair(64)
	if _, err := a.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	_ = a.Close()
	// Peer drains buffered bytes, then sees EOF.
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tail" {
		t.Fatalf("drained %q", got)
	}
	// Writing toward the closed endpoint fails.
	if _, err := b.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
	// Our own reads after Close fail too.
	if _, err := a.Read(make([]byte, 1)); err == nil {
		t.Fatal("read after close succeeded")
	}
}

// TestBufferedMemTransport runs the listener/dial path over buffered pairs.
func TestBufferedMemTransport(t *testing.T) {
	tr := NewBufferedMemTransport(256)
	ln, err := tr.Listen("ctl:a")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			accepted <- err
			return
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			accepted <- err
			return
		}
		_, err = c.Write(bytes.ToUpper(buf))
		accepted <- err
	}()
	c, err := tr.Dial("ctl:a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "PING" {
		t.Fatalf("got %q", buf)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
}

// TestBufConnIdlePairHeap pins that an idle buffered connection reserves
// no ring: dialed pairs that never carry a byte cost their bookkeeping
// only, not 2×limit bytes each.
func TestBufConnIdlePairHeap(t *testing.T) {
	const pairs = 2000
	tr := NewBufferedMemTransport(16 << 10)
	ln, err := tr.Listen("ctl:idle")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conns := make([]net.Conn, 0, 2*pairs)
	accepted := make(chan net.Conn)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c
		}
	}()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		c, err := tr.Dial("ctl:idle")
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c, <-accepted)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perPair := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / pairs
	if perPair >= 1<<10 {
		t.Errorf("idle pair holds %d B of heap, want under 1 KiB", perPair)
	}
	for _, c := range conns {
		_ = c.Close()
	}
}

// TestBufRingModel drives rings with seeded random write and read sizes
// and checks them against bytes.Buffer: bytes come out in order, the
// buffer never exceeds the limit, and (where the limit exceeds the first
// allocation) rings grow while their buffered bytes wrap. Sizes scale with
// the current buffer so each fresh ring walks its growth steps.
func TestBufRingModel(t *testing.T) {
	for _, limit := range []int{7, 16, 512, 4096, 64 << 10} {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(limit)))
			out := make([]byte, limit)
			next := byte(0)
			wrappedGrowths := 0
			for ring := 0; ring < 50; ring++ {
				r := newBufRing(limit)
				var model bytes.Buffer
				for step := 0; step < 400; step++ {
					scale := max(len(r.buf), 64)
					if free := limit - r.n; free > 0 && rng.Intn(2) == 0 {
						// Never more than the free space under the limit,
						// so the write does not block.
						p := make([]byte, 1+rng.Intn(min(free, scale)))
						for i := range p {
							p[i] = next
							next++
						}
						wrapped := r.start+r.n > len(r.buf)
						size := len(r.buf)
						if n, err := r.write(p); err != nil || n != len(p) {
							t.Fatalf("ring %d step %d: write %d = %d, %v", ring, step, len(p), n, err)
						}
						if wrapped && len(r.buf) > size {
							wrappedGrowths++
						}
						model.Write(p)
					} else if r.n > 0 {
						n, err := r.read(out[:1+rng.Intn(min(limit, scale))])
						if err != nil {
							t.Fatalf("ring %d step %d: read: %v", ring, step, err)
						}
						if want := model.Next(n); !bytes.Equal(out[:n], want) {
							t.Fatalf("ring %d step %d: read % x, want % x", ring, step, out[:n], want)
						}
					}
					if len(r.buf) > limit || r.n != model.Len() {
						t.Fatalf("ring %d step %d: len(buf)=%d n=%d model=%d, limit %d",
							ring, step, len(r.buf), r.n, model.Len(), limit)
					}
				}
			}
			if limit > minRingSize && wrappedGrowths == 0 {
				t.Errorf("no ring grew while its buffered bytes wrapped")
			}
		})
	}
}

// TestBufRingCloseReadReleases pins that abandoning the reader side drops
// the ring's buffer along with its bytes.
func TestBufRingCloseReadReleases(t *testing.T) {
	r := newBufRing(4096)
	if _, err := r.write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if len(r.buf) == 0 {
		t.Fatal("write allocated no buffer")
	}
	r.closeRead()
	if r.buf != nil || r.n != 0 {
		t.Fatalf("after closeRead: len(buf)=%d n=%d, want no buffer", len(r.buf), r.n)
	}
	if _, err := r.write([]byte("x")); err == nil {
		t.Fatal("write after closeRead succeeded")
	}
}
