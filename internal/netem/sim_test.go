//go:build goexperiment.synctest

package netem

import (
	"slices"
	"testing"
	"time"

	"attain/internal/clock"
	"attain/internal/simlane"
)

// TestSimLinkArrivalInstants: each frame arrives at its serialization end
// on the busy-until horizon plus the latency. Five 1,000-byte frames at
// 800 kb/s (10 ms each) with 1 ms latency arrive 11, 21, 31, 41 and 51 ms
// after the send, to the nanosecond on the virtual clock.
func TestSimLinkArrivalInstants(t *testing.T) {
	var got []time.Duration
	simlane.Run(func() {
		l := NewLink(clock.New(), LinkConfig{BandwidthBps: 800_000, Latency: time.Millisecond})
		defer l.Close()
		done := make(chan struct{})
		start := time.Now()
		l.B().SetReceiver(func([]byte) {
			got = append(got, time.Since(start))
			if len(got) == 5 {
				close(done)
			}
		})
		frame := make([]byte, 1000)
		for i := 0; i < 5; i++ {
			l.A().Send(frame)
		}
		<-done
	})
	want := []time.Duration{11 * time.Millisecond, 21 * time.Millisecond, 31 * time.Millisecond,
		41 * time.Millisecond, 51 * time.Millisecond}
	if !slices.Equal(got, want) {
		t.Errorf("arrivals %v, want %v", got, want)
	}
}

// TestSimLinkQueueLenCountsFramesAwaitingTheWire: QueueLen bounds the
// frames whose serialization has not started, so with QueueLen 2 five
// back-to-back frames put one on the wire, queue two and drop two.
func TestSimLinkQueueLenCountsFramesAwaitingTheWire(t *testing.T) {
	var st LinkStats
	simlane.Run(func() {
		l := NewLink(clock.New(), LinkConfig{BandwidthBps: 800_000, QueueLen: 2})
		defer l.Close()
		l.B().SetReceiver(func([]byte) {})
		frame := make([]byte, 1000)
		for i := 0; i < 5; i++ {
			l.A().Send(frame)
		}
		time.Sleep(time.Second)
		st = l.StatsA2B()
	})
	if st.Enqueued != 3 || st.Delivered != 3 || st.Dropped != 2 {
		t.Errorf("stats %+v, want 3 enqueued and delivered, 2 dropped", st)
	}
}
