package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"attain/internal/netem"
	"attain/internal/openflow"
)

// The load generator drives pre-marshaled OpenFlow frames over net.Conns
// and checks every frame that comes out the far side. It knows nothing of
// the injector: the proxy workloads put an injector between the two ends,
// the bare baseline connects them directly.
//
// Every frame carries its lane-local sequence number in the OpenFlow xid
// and an 8-byte stamp in its body: the lane id (16 bits) and the time the
// frame was due to be sent, in nanoseconds since the flow's epoch (48
// bits). Latency is delivery time minus due time, so a stalled sender or a
// full ring shows up as latency of the frames queued behind it
// (coordinated omission is counted, not hidden).

const (
	stampLen = 8
	// tapeLen is a power of two so sequence numbers map onto tape positions
	// across uint32 wrap-around.
	tapeLen  = 128
	tapeMask = tapeLen - 1
	// sampleEvery decimates latency samples so that clock reads stay off
	// most deliveries.
	sampleEvery = 8
	// paceTick is the generator's scheduling quantum. The sandbox kernel
	// rounds short sleeps up to about a millisecond, so a finer tick would
	// only add lateness; all frames of one tick are due at the tick.
	paceTick = time.Millisecond
)

// tapeFrame is one pre-marshaled frame of a lane's repeating tape.
type tapeFrame struct {
	wire     []byte // as sent; xid and stamp are patched per send
	expect   []byte // as the far side must see it; nil when the attack drops it
	stampOff int    // offset of the stamp, the same in wire and expect
}

type tape [tapeLen]tapeFrame

// lane is one direction of one session: the conn the generator writes, the
// conn the sink reads, and the tape both agree on.
type lane struct {
	id   uint16
	w    net.Conn
	r    net.Conn
	tape *tape

	seq uint32 // next sequence number; owned by the lane's generator
}

// phase is one latency-recording interval, split into equal windows by due
// time. Each sink appends only to its own row, so recording takes no lock.
type phase struct {
	startRel int64 // ns since flow epoch of window 0
	winLen   int64
	samples  [][][]int64 // [sink][window] latencies in ns
}

func newPhase(startRel int64, winLen time.Duration, windows, sinks int) *phase {
	p := &phase{startRel: startRel, winLen: int64(winLen), samples: make([][][]int64, sinks)}
	for i := range p.samples {
		p.samples[i] = make([][]int64, windows)
	}
	return p
}

// merged returns the phase's samples per window, all sinks together.
func (p *phase) merged() [][]int64 {
	if len(p.samples) == 0 {
		return nil
	}
	out := make([][]int64, len(p.samples[0]))
	for _, row := range p.samples {
		for w, s := range row {
			out[w] = append(out[w], s...)
		}
	}
	return out
}

// flow is one set of lanes with its generators and sinks.
type flow struct {
	epoch time.Time
	lanes []*lane
	gens  [][]*lane // lanes partitioned over generator goroutines
	burst int

	sent      atomic.Uint64 // frames written
	dropsDue  atomic.Uint64 // frames written that the attack must drop
	delivered atomic.Uint64 // frames the sinks accepted
	bad       atomic.Uint64 // frames lost, reordered, or not as expected
	rec       atomic.Pointer[phase]

	sinkWG    sync.WaitGroup
	badMu     sync.Mutex
	badReason string
}

// newFlow starts one sink per lane. generators is the number of goroutines
// the send phases will use; burst is frames per Conn.Write.
func newFlow(lanes []*lane, generators, burst int) *flow {
	if generators > len(lanes) {
		generators = len(lanes)
	}
	f := &flow{epoch: time.Now(), lanes: lanes, burst: burst, gens: make([][]*lane, generators)}
	for i, l := range lanes {
		f.gens[i%generators] = append(f.gens[i%generators], l)
	}
	for i, l := range lanes {
		f.sinkWG.Add(1)
		go func() {
			defer f.sinkWG.Done()
			f.sink(i, l)
		}()
	}
	return f
}

func (f *flow) rel(t time.Time) int64 { return int64(t.Sub(f.epoch)) }

func (f *flow) noteBad(n uint64, format string, args ...any) {
	f.bad.Add(n)
	f.badMu.Lock()
	if f.badReason == "" {
		f.badReason = fmt.Sprintf(format, args...)
	}
	f.badMu.Unlock()
}

// sink reads one lane's far end until it closes, checking order and
// content of every frame and sampling latency.
func (f *flow) sink(idx int, l *lane) {
	br := bufio.NewReaderSize(l.r, 4096)
	buf := openflow.GetBuffer()
	defer func() { openflow.PutBuffer(buf) }()
	var next uint32
	var seen, pending uint64
	for {
		raw, err := openflow.ReadRawInto(br, buf)
		buf = raw
		if err != nil {
			f.delivered.Add(pending)
			return
		}
		xid := binary.BigEndian.Uint32(raw[4:8])
		for l.tape[next&tapeMask].expect == nil {
			next++
		}
		if xid != next {
			f.noteBad(1, "lane %d: got seq %d, want %d (lost or reordered)", l.id, xid, next)
		}
		next = xid + 1
		tf := &l.tape[xid&tapeMask]
		so := tf.stampOff
		switch {
		case tf.expect == nil:
			f.noteBad(1, "lane %d seq %d: frame delivered that the attack must drop", l.id, xid)
		case len(raw) != len(tf.expect) ||
			!bytes.Equal(raw[:4], tf.expect[:4]) ||
			!bytes.Equal(raw[8:so], tf.expect[8:so]) ||
			!bytes.Equal(raw[so+stampLen:], tf.expect[so+stampLen:]):
			f.noteBad(1, "lane %d seq %d: frame differs from what the seed predicts", l.id, xid)
		default:
			stamp := binary.BigEndian.Uint64(raw[so:])
			if uint16(stamp>>48) != l.id {
				f.noteBad(1, "lane %d seq %d: frame belongs to lane %d", l.id, xid, stamp>>48)
			}
			if seen++; seen%sampleEvery == 0 {
				if p := f.rec.Load(); p != nil {
					due := int64(stamp & (1<<48 - 1))
					if w := (due - p.startRel) / p.winLen; due >= p.startRel && w < int64(len(p.samples[idx])) {
						p.samples[idx][w] = append(p.samples[idx][w], f.rel(time.Now())-due)
					}
				}
			}
		}
		pending++
		// Publish the count when the reader has caught up, so quiescence is
		// visible promptly without an atomic add per frame.
		if br.Buffered() == 0 || pending >= 256 {
			f.delivered.Add(pending)
			pending = 0
		}
	}
}

// sender is one generator goroutine's state.
type sender struct {
	f     *flow
	lanes []*lane
	at    int // next lane, round robin
	buf   []byte
}

func (f *flow) senders() []*sender {
	out := make([]*sender, len(f.gens))
	for i, lanes := range f.gens {
		out[i] = &sender{f: f, lanes: lanes}
	}
	return out
}

// write sends n frames on the next lane as one Conn.Write, stamped with
// dueRel.
func (s *sender) write(n int, dueRel int64) error {
	l := s.lanes[s.at]
	if s.at++; s.at == len(s.lanes) {
		s.at = 0
	}
	stamp := uint64(l.id)<<48 | uint64(dueRel)&(1<<48-1)
	buf := s.buf[:0]
	var drops uint64
	for j := 0; j < n; j++ {
		tf := &l.tape[l.seq&tapeMask]
		off := len(buf)
		buf = append(buf, tf.wire...)
		binary.BigEndian.PutUint32(buf[off+4:], l.seq)
		binary.BigEndian.PutUint64(buf[off+tf.stampOff:], stamp)
		if tf.expect == nil {
			drops++
		}
		l.seq++
	}
	s.buf = buf
	if _, err := l.w.Write(buf); err != nil {
		return err
	}
	s.f.sent.Add(uint64(n))
	if drops > 0 {
		s.f.dropsDue.Add(drops)
	}
	return nil
}

// saturate sends bursts back to back (open loop; a full ring blocks the
// writer) until stop is set.
func (f *flow) saturate(stop *atomic.Bool) error {
	var wg sync.WaitGroup
	errs := make([]error, len(f.gens))
	for i, s := range f.senders() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for k := 0; k < 32; k++ {
					if err := s.write(f.burst, f.rel(time.Now())); err != nil {
						errs[i] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("saturate: %w", err)
		}
	}
	return nil
}

// paceResult is what one paced phase reports about the generator itself.
type paceResult struct {
	scheduled uint64
	// late is, per tick of the schedule, how long after its due time the
	// slowest generator got to it. A tick a generator never reached (it had
	// given up) reads as late as the generator was when it stopped.
	late []time.Duration
}

func (p paceResult) lateP99US() float64 {
	late := make([]float64, len(p.late))
	for i, d := range p.late {
		late[i] = us(d)
	}
	return quantile(late, 0.99)
}

// pace offers rate frames per second for dur, starting at start. Each
// generator wakes once per tick and sends that tick's share in bursts, all
// stamped with the tick's due time whenever they actually go out: a
// generator that was held up catches up, and the frames it sends late say
// so. One that falls half the phase behind is facing a system that cannot
// take the rate at all and stops.
func (f *flow) pace(start time.Time, dur time.Duration, rate float64) (paceResult, error) {
	ticks := int(dur / paceTick)
	perTick := rate * paceTick.Seconds() / float64(len(f.gens))
	var wg sync.WaitGroup
	scheduled := make([]uint64, len(f.gens))
	late := make([][]time.Duration, len(f.gens))
	errs := make([]error, len(f.gens))
	for i, s := range f.senders() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			late[i] = make([]time.Duration, ticks)
			var owed float64
			for k := 0; k < ticks; k++ {
				due := start.Add(time.Duration(k) * paceTick)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late[i][k] = time.Since(due)
				if late[i][k] > dur/2 {
					for ; k < ticks; k++ {
						late[i][k] = dur / 2
					}
					return
				}
				owed += perTick
				dueRel := f.rel(due)
				for owed >= 1 {
					n := f.burst
					if float64(n) > owed {
						n = int(owed)
					}
					if err := s.write(n, dueRel); err != nil {
						errs[i] = err
						return
					}
					owed -= float64(n)
					scheduled[i] += uint64(n)
				}
			}
		}()
	}
	wg.Wait()
	out := paceResult{late: make([]time.Duration, ticks)}
	for i := range f.gens {
		if errs[i] != nil {
			return out, fmt.Errorf("pace: %w", errs[i])
		}
		out.scheduled += scheduled[i]
		for k, d := range late[i] {
			out.late[k] = max(out.late[k], d)
		}
	}
	return out, nil
}

// backlog is the number of frames written and not yet accounted for.
func (f *flow) backlog() int64 {
	return int64(f.sent.Load()) - int64(f.dropsDue.Load()) - int64(f.delivered.Load())
}

// quiesce waits until every frame written has been delivered or was due to
// be dropped. Frames still missing at the timeout are lost.
func (f *flow) quiesce(timeout time.Duration) (lost int64) {
	deadline := time.Now().Add(timeout)
	for {
		b := f.backlog()
		if b <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return b
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// windowRates samples the delivered counter every window for n windows and
// returns frames per second in each.
func (f *flow) windowRates(window time.Duration, n int) []float64 {
	rates := make([]float64, 0, n)
	prevT, prevN := time.Now(), f.delivered.Load()
	for i := 0; i < n; i++ {
		time.Sleep(window)
		t, d := time.Now(), f.delivered.Load()
		rates = append(rates, float64(d-prevN)/t.Sub(prevT).Seconds())
		prevT, prevN = t, d
	}
	return rates
}

// pacedStats is one paced phase's outcome. Latency and CPU are reported as
// quartiles over all windows (see quietLow), so a disturbed window (a
// neighbour on the machine, a collection, a stall of the system itself)
// shows in the samples without moving the headline. Whether the phase means anything is
// a separate question: a window is on schedule when the generator never
// ran more than a tenth of it behind and it did not end with more than
// 20 ms of offered load still queued. With fewer than half the windows on
// schedule the offered rate was beyond what the system takes, and the
// phase is invalid.
type pacedStats struct {
	windows   [][]int64 // latency samples per window, ns
	cpuPerMsg float64   // quiet quartile over windows of CPU ns per delivered frame
	valid     int       // windows on schedule, of total
	total     int
	gen       paceResult
}

func (st pacedStats) invalid() bool { return 2*st.valid < st.total }

// runPaced offers rate for warm+windows*winLen, recording latency, CPU and
// deliveries over the windows only.
func (f *flow) runPaced(rate float64, warm, winLen time.Duration, windows int) (pacedStats, error) {
	st := pacedStats{total: windows}
	start := time.Now().Add(2 * time.Millisecond)
	recStart := start.Add(warm)
	total := warm + time.Duration(windows)*winLen
	p := newPhase(f.rel(recStart), winLen, windows, len(f.lanes))
	f.rec.Store(p)

	// At each window's end, note the backlog and the CPU spent per frame
	// delivered in that window.
	backlogs := make([]int64, windows)
	cpuPerMsg := make([]float64, windows)
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		time.Sleep(time.Until(recStart))
		cpu0, del0 := cpuTime(), f.delivered.Load()
		for w := 0; w < windows; w++ {
			time.Sleep(time.Until(recStart.Add(time.Duration(w+1) * winLen)))
			backlogs[w] = f.backlog()
			cpu1, del1 := cpuTime(), f.delivered.Load()
			if del1 > del0 {
				cpuPerMsg[w] = float64(cpu1-cpu0) / float64(del1-del0)
			}
			cpu0, del0 = cpu1, del1
		}
	}()

	gen, err := f.pace(start, total, rate)
	<-watchDone
	f.rec.Store(nil)
	if err != nil {
		return st, err
	}
	st.gen = gen
	if lost := f.quiesce(5 * time.Second); lost > 0 {
		f.noteBad(uint64(lost), "%d frames never delivered after the paced phase", lost)
	}

	worstLate := make([]time.Duration, windows)
	for k, d := range gen.late {
		if w := (time.Duration(k)*paceTick - warm) / winLen; k*int(paceTick) >= int(warm) && int(w) < windows {
			worstLate[w] = max(worstLate[w], d)
		}
	}
	var cpus []float64
	for w := range worstLate {
		if worstLate[w] <= winLen/10 && backlogs[w] <= int64(rate*0.020) {
			st.valid++
		}
		if cpuPerMsg[w] > 0 {
			cpus = append(cpus, cpuPerMsg[w])
		}
	}
	st.windows = p.merged()
	st.cpuPerMsg = quietLow(cpus)
	return st, nil
}

// connPair dials addr on mem and accepts the other end from ln. The
// in-memory transport's Dial rendezvouses with Accept, so the accept runs
// on a goroutine of its own.
func connPair(mem *netem.MemTransport, ln net.Listener, addr string) (dialed, accepted net.Conn, err error) {
	type accept struct {
		c   net.Conn
		err error
	}
	ch := make(chan accept, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accept{c, err}
	}()
	if dialed, err = mem.Dial(addr); err != nil {
		// Dial fails only on a closed listener, which also ends the Accept.
		<-ch
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		dialed.Close()
		return nil, nil, a.err
	}
	return dialed, a.c, nil
}

// close shuts every lane's write side and waits for the sinks to finish.
func (f *flow) close() {
	for _, l := range f.lanes {
		l.w.Close()
		l.r.Close()
	}
	f.sinkWG.Wait()
}
