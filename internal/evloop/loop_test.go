package evloop

import (
	"bytes"
	"net"
	"slices"
	"testing"
	"time"

	"attain/internal/telemetry"
)

// countingClock hands out a new instant on every Now and counts the reads.
type countingClock struct{ reads int }

func (c *countingClock) Now() time.Time {
	c.reads++
	return time.Unix(int64(c.reads), 0)
}
func (c *countingClock) Sleep(time.Duration)                  {}
func (c *countingClock) After(time.Duration) <-chan time.Time { return nil }

// frameRig is a loop over frame events: Handle sends every event's frame to
// one sink. It records what the loop hands its functions.
type frameRig struct {
	loop     *Loop[[]byte]
	clk      countingClock
	sink     Sink
	dst      writeCounter
	chunks   []int
	stamps   []time.Time
	recycled map[*byte]int
	failed   []failure
}

type failure struct {
	frames, written int
	err             error
}

func newFrameRig(tele *telemetry.Telemetry, group *Group) *frameRig {
	r := &frameRig{recycled: make(map[*byte]int)}
	r.sink = Sink{W: &r.dst, Owner: r}
	recycle := func(fr []byte) { r.recycled[&fr[0]]++ }
	r.loop = NewLoop(LoopConfig[[]byte]{
		Clock:     &r.clk,
		Telemetry: tele,
		Name:      "rig",
		Group:     group,
		Handle: func(chunk [][]byte, now time.Time) int {
			r.chunks = append(r.chunks, len(chunk))
			r.stamps = append(r.stamps, now)
			for _, fr := range chunk {
				r.loop.Send(&r.sink, fr)
			}
			return len(chunk)
		},
		Failed: func(s *Sink, frames, written int, err error) {
			if s.Owner != r {
				panic("failed sink has the wrong owner")
			}
			r.failed = append(r.failed, failure{frames, written, err})
		},
		Drop:    recycle,
		Recycle: recycle,
	})
	return r
}

// push queues n one-byte frames numbered from first.
func (r *frameRig) push(first, n int) {
	for i := 0; i < n; i++ {
		r.loop.PushNoWait([]byte{byte(first + i)})
	}
}

// recycledOnce reports whether exactly want distinct frames were recycled,
// each exactly once.
func (r *frameRig) recycledOnce(t *testing.T, want int) {
	t.Helper()
	if len(r.recycled) != want {
		t.Fatalf("%d distinct frames recycled, want %d", len(r.recycled), want)
	}
	for _, n := range r.recycled {
		if n != 1 {
			t.Fatalf("a frame was recycled %d times", n)
		}
	}
}

func TestLoopChunksOneSwap(t *testing.T) {
	tele := telemetry.New(telemetry.Options{})
	r := newFrameRig(tele, nil)
	r.push(0, 600)
	if !r.loop.RunOnce(nil) {
		t.Fatal("RunOnce found no work")
	}
	if want := []int{256, 256, 88}; !slices.Equal(r.chunks, want) {
		t.Fatalf("chunks %v, want %v", r.chunks, want)
	}
	if r.clk.reads != 3 {
		t.Fatalf("%d clock reads for 3 chunks", r.clk.reads)
	}
	for i, now := range r.stamps {
		if want := time.Unix(int64(i+1), 0); !now.Equal(want) {
			t.Errorf("chunk %d stamped %v, want its own reading %v", i, now, want)
		}
	}
	// One write per chunk: the sink is flushed at the end of each.
	if r.dst.calls != 3 || r.dst.buf.Len() != 600 {
		t.Fatalf("%d writes carrying %d bytes, want 3 carrying 600", r.dst.calls, r.dst.buf.Len())
	}
	snap := tele.Registry().Snapshot()
	if snap["rig.msgs"] != 600 || snap["rig.batches"] != 3 {
		t.Fatalf("msgs=%d batches=%d, want 600 and 3", snap["rig.msgs"], snap["rig.batches"])
	}
	if _, ok := snap["rig.stalls"]; ok {
		t.Error("an unbounded loop registered a stalls counter")
	}
	r.recycledOnce(t, 600)
}

func TestLoopOneWritePerSinkInOrder(t *testing.T) {
	r := newFrameRig(nil, nil)
	var other writeCounter
	second := Sink{W: &other}
	r.push(0, 5)
	r.loop.Send(&second, []byte("x"))
	r.loop.RunOnce(nil)
	if r.dst.calls != 1 || !bytes.Equal(r.dst.buf.Bytes(), []byte{0, 1, 2, 3, 4}) {
		t.Fatalf("%d writes of %v, want one write of [0 1 2 3 4]", r.dst.calls, r.dst.buf.Bytes())
	}
	if other.calls != 1 || other.buf.String() != "x" {
		t.Fatalf("second sink: %d writes of %q", other.calls, other.buf.String())
	}
	if r.loop.Touched() != 0 || r.sink.Len() != 0 || second.Len() != 0 {
		t.Fatal("frames still pending after the chunk's flush")
	}
}

func TestLoopWriteErrorReachesFailed(t *testing.T) {
	r := newFrameRig(nil, nil)
	r.dst.failAfter = 1
	// Two frames fill the first coalesced write, the third needs a second
	// one, which fails.
	big := func(b byte) []byte { return bytes.Repeat([]byte{b}, DefaultFlushChunk/2) }
	for b := byte(1); b <= 3; b++ {
		r.loop.PushNoWait(big(b))
	}
	r.loop.RunOnce(nil)
	if len(r.failed) != 1 {
		t.Fatalf("Failed called %d times, want once", len(r.failed))
	}
	if f := r.failed[0]; f.frames != 3 || f.written != 2 || f.err == nil {
		t.Fatalf("Failed saw %+v, want 3 frames, 2 written and the error", f)
	}
	r.recycledOnce(t, 3)
}

func TestLoopCloseRecyclesQueuedAndPending(t *testing.T) {
	r := newFrameRig(nil, nil)
	r.push(0, 3)
	r.loop.Send(&r.sink, []byte{10})
	r.loop.Send(&r.sink, []byte{11})
	r.loop.Close()
	r.loop.Close()
	if !r.loop.Stopped() || r.loop.Len() != 0 || r.loop.Touched() != 0 {
		t.Fatal("loop still holds events after Close")
	}
	if r.dst.calls != 0 || len(r.chunks) != 0 {
		t.Fatal("Close wrote or handled frames")
	}
	if len(r.failed) != 1 || r.failed[0] != (failure{2, 0, net.ErrClosed}) {
		t.Fatalf("Failed saw %+v, want the 2 pending frames unwritten", r.failed)
	}
	r.recycledOnce(t, 5)
	if r.loop.PushNoWait([]byte{1}) {
		t.Fatal("a closed loop accepted an event")
	}
}

func TestGroupImbalanceThreshold(t *testing.T) {
	tele := telemetry.New(telemetry.Options{})
	g := NewGroup(tele.Counter("rig.imbalance"))
	a, b := newFrameRig(nil, g), newFrameRig(nil, g)
	count := func() uint64 { return tele.Registry().Snapshot()["rig.imbalance"] }
	for _, tc := range []struct {
		a, b uint64
		bump bool
	}{
		{0, Batch, false},
		{0, Batch + 1, true},
		{100, 2*100 + Batch, false},
		{2*100 + Batch + 1, 100, true},
		{1000, 1000, false},
	} {
		a.loop.processed.Store(tc.a)
		b.loop.processed.Store(tc.b)
		want := count()
		if tc.bump {
			want++
		}
		g.observe()
		if got := count(); got != want {
			t.Errorf("processed %d vs %d: imbalance %d, want %d", tc.a, tc.b, got, want)
		}
	}

	// The loop probes on every 64th chunk.
	a.loop.processed.Store(0)
	b.loop.processed.Store(0)
	before := count()
	a.push(0, 63*Batch)
	a.loop.RunOnce(nil)
	if count() != before {
		t.Fatal("probe ran before the 64th chunk")
	}
	a.push(0, Batch)
	a.loop.RunOnce(nil)
	if count() != before+1 {
		t.Fatal("64th chunk of a loop far ahead of its sibling did not count imbalance")
	}
}

func TestLoopSteadyChunkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	var clk countingClock
	var dst writeCounter
	sink := Sink{W: &dst}
	frames := make([][]byte, 16)
	for i := range frames {
		frames[i] = make([]byte, 64)
	}
	var l *Loop[int]
	l = NewLoop(LoopConfig[int]{
		Clock: &clk,
		Handle: func(chunk []int, _ time.Time) int {
			for _, i := range chunk {
				l.Send(&sink, frames[i])
			}
			return len(chunk)
		},
		Failed:  func(*Sink, int, int, error) {},
		Drop:    func(int) {},
		Recycle: func([]byte) {},
	})
	step := func() {
		for i := range frames {
			l.PushNoWait(i)
		}
		l.RunOnce(nil)
		dst.buf.Reset()
	}
	step() // grow the intake, pending list and coalescing buffer
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("steady-state chunk allocates: %v allocs/op", allocs)
	}
}
