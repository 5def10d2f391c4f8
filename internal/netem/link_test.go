package netem

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"attain/internal/clock"
)

func TestLinkDeliversBothDirections(t *testing.T) {
	l := NewLink(clock.New(), LinkConfig{})
	defer l.Close()

	gotA := make(chan []byte, 1)
	gotB := make(chan []byte, 1)
	l.A().SetReceiver(func(f []byte) { gotA <- f })
	l.B().SetReceiver(func(f []byte) { gotB <- f })

	l.A().Send([]byte("to-b"))
	l.B().Send([]byte("to-a"))

	select {
	case f := <-gotB:
		if !bytes.Equal(f, []byte("to-b")) {
			t.Errorf("B received %q", f)
		}
	case <-time.After(time.Second):
		t.Fatal("B never received")
	}
	select {
	case f := <-gotA:
		if !bytes.Equal(f, []byte("to-a")) {
			t.Errorf("A received %q", f)
		}
	case <-time.After(time.Second):
		t.Fatal("A never received")
	}
}

func TestLinkPreservesOrder(t *testing.T) {
	l := NewLink(clock.New(), LinkConfig{Latency: time.Millisecond, QueueLen: 1000})
	defer l.Close()

	const n = 200
	var mu sync.Mutex
	var got []byte
	done := make(chan struct{})
	l.B().SetReceiver(func(f []byte) {
		mu.Lock()
		got = append(got, f[0])
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		l.A().Send([]byte{byte(i)})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/%d delivered", len(got), n)
	}
	for i := 0; i < n; i++ {
		if got[i] != byte(i) {
			t.Fatalf("frame %d out of order: got %d", i, got[i])
		}
	}
}

func TestLinkLatency(t *testing.T) {
	const latency = 50 * time.Millisecond
	clk := clock.New()
	l := NewLink(clk, LinkConfig{Latency: latency})
	defer l.Close()

	done := make(chan time.Time, 1)
	l.B().SetReceiver(func([]byte) { done <- clk.Now() })
	start := clk.Now()
	l.A().Send([]byte("x"))
	select {
	case end := <-done:
		if d := end.Sub(start); d < latency {
			t.Errorf("delivered after %v, want >= %v", d, latency)
		}
	case <-time.After(time.Second):
		t.Fatal("never delivered")
	}
}

func TestLinkBandwidthPacing(t *testing.T) {
	// 1000-byte frames at 800 kbps = 10ms serialization each.
	clk := clock.New()
	l := NewLink(clk, LinkConfig{BandwidthBps: 800_000})
	defer l.Close()

	const n = 5
	done := make(chan struct{})
	var count int
	l.B().SetReceiver(func([]byte) {
		count++
		if count == n {
			close(done)
		}
	})
	frame := make([]byte, 1000)
	start := clk.Now()
	for i := 0; i < n; i++ {
		l.A().Send(frame)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("frames never all delivered")
	}
	elapsed := clk.Now().Sub(start)
	if elapsed < 40*time.Millisecond {
		t.Errorf("5 frames delivered in %v, want >= ~50ms of serialization", elapsed)
	}
}

func TestLinkAverageRateMatchesBandwidth(t *testing.T) {
	// 100 frames of 1250 bytes at 1 Mbps = 10ms each = 1s total. The
	// paced average must land near the configured rate even though waits
	// on a scaled clock overshoot (a scaled clock keeps the test fast).
	clk := clock.NewScaled(20)
	l := NewLink(clk, LinkConfig{BandwidthBps: 1_000_000, QueueLen: 256})
	defer l.Close()

	const n = 100
	frame := make([]byte, 1250)
	done := make(chan struct{})
	var count int
	l.B().SetReceiver(func([]byte) {
		count++
		if count == n {
			close(done)
		}
	})
	start := clk.Now()
	for i := 0; i < n; i++ {
		l.A().Send(frame)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("delivered %d/%d", count, n)
	}
	elapsed := clk.Now().Sub(start)
	rate := float64(n) * float64(len(frame)) * 8 / elapsed.Seconds()
	// Within 2x of 1 Mbps either way (scheduling noise under scaling).
	if rate < 0.5e6 || rate > 2e6 {
		t.Errorf("measured rate %.0f bps over %v, want ~1e6", rate, elapsed)
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	// Slow link, tiny queue: flooding must drop.
	l := NewLink(clock.New(), LinkConfig{BandwidthBps: 8_000, QueueLen: 2})
	defer l.Close()
	l.B().SetReceiver(func([]byte) {})
	for i := 0; i < 100; i++ {
		l.A().Send(make([]byte, 100))
	}
	st := l.StatsA2B()
	if st.Dropped == 0 {
		t.Errorf("stats = %+v, want drops", st)
	}
	if st.Enqueued+st.Dropped != 100 {
		t.Errorf("enqueued %d + dropped %d != 100", st.Enqueued, st.Dropped)
	}
}

func TestLinkLossProbability(t *testing.T) {
	l := NewLink(clock.New(), LinkConfig{LossProb: 0.5, LossSeed: 7, QueueLen: 2048})
	defer l.Close()
	var delivered int
	done := make(chan struct{}, 2048)
	l.B().SetReceiver(func([]byte) { done <- struct{}{} })
	const n = 1000
	for i := 0; i < n; i++ {
		l.A().Send([]byte{byte(i)})
	}
	// Wait for deliveries to settle.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-done:
			delivered++
			continue
		case <-time.After(100 * time.Millisecond):
		case <-deadline:
		}
		break
	}
	st := l.StatsA2B()
	if st.Dropped == 0 {
		t.Fatal("no losses at 50% loss probability")
	}
	if st.Dropped+st.Enqueued != n {
		t.Errorf("dropped %d + enqueued %d != %d", st.Dropped, st.Enqueued, n)
	}
	// Loose binomial bounds around 50%.
	if st.Dropped < 400 || st.Dropped > 600 {
		t.Errorf("dropped %d of %d, outside plausible 50%% range", st.Dropped, n)
	}
	if delivered == 0 {
		t.Error("nothing delivered at 50% loss")
	}
}

func TestLinkLossDeterministicBySeed(t *testing.T) {
	run := func() uint64 {
		l := NewLink(clock.New(), LinkConfig{LossProb: 0.3, LossSeed: 42, QueueLen: 1024})
		defer l.Close()
		l.B().SetReceiver(func([]byte) {})
		for i := 0; i < 500; i++ {
			l.A().Send([]byte{1})
		}
		return l.StatsA2B().Dropped
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed dropped %d then %d", a, b)
	}
}

func TestLinkDownDropsAndUpRestores(t *testing.T) {
	l := NewLink(clock.New(), LinkConfig{})
	defer l.Close()
	got := make(chan []byte, 10)
	l.B().SetReceiver(func(f []byte) { got <- f })

	l.A().Down()
	l.A().Send([]byte("lost"))
	select {
	case <-got:
		t.Fatal("frame delivered over a down port")
	case <-time.After(50 * time.Millisecond):
	}

	l.A().Up()
	l.A().Send([]byte("ok"))
	select {
	case f := <-got:
		if string(f) != "ok" {
			t.Errorf("received %q", f)
		}
	case <-time.After(time.Second):
		t.Fatal("frame not delivered after Up")
	}
}

func TestLinkSendCopiesBuffer(t *testing.T) {
	l := NewLink(clock.New(), LinkConfig{Latency: 10 * time.Millisecond})
	defer l.Close()
	got := make(chan []byte, 1)
	l.B().SetReceiver(func(f []byte) { got <- f })
	buf := []byte("original")
	l.A().Send(buf)
	copy(buf, "REWRITE!")
	select {
	case f := <-got:
		if string(f) != "original" {
			t.Errorf("received %q, sender mutation leaked", f)
		}
	case <-time.After(time.Second):
		t.Fatal("never delivered")
	}
}

func TestLinkCloseStopsDelivery(t *testing.T) {
	l := NewLink(clock.New(), LinkConfig{Latency: time.Hour})
	l.A().Send([]byte("stuck"))
	doneCh := make(chan struct{})
	go func() {
		l.Close()
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return with a frame in flight")
	}
}

func TestLinkStatsCountBytes(t *testing.T) {
	l := NewLink(clock.New(), LinkConfig{})
	defer l.Close()
	done := make(chan struct{})
	l.B().SetReceiver(func([]byte) { close(done) })
	l.A().Send(make([]byte, 123))
	<-done
	if st := l.StatsA2B(); st.Bytes != 123 || st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}
