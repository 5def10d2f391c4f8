// Package netem provides the network fabric of the ATTAIN simulator:
// full-duplex links with configurable bandwidth, propagation latency, and
// bounded queues for the data plane, and pluggable stream transports (real
// loopback TCP or in-memory pipes) for the control plane.
package netem

import (
	"math/rand"
	"sync"
	"time"

	"attain/internal/clock"
)

// DefaultQueueLen is the default per-direction bound on frames waiting
// for the wire (LinkConfig.QueueLen).
const DefaultQueueLen = 256

// LinkConfig describes one link's characteristics. The zero value means an
// infinitely fast, zero-latency link with the default queue.
type LinkConfig struct {
	// BandwidthBps is the serialization rate in bits per second; 0 means
	// unlimited.
	BandwidthBps int64
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// QueueLen bounds, per direction, the frames whose serialization has
	// not started yet; 0 means DefaultQueueLen. The frame on the wire and
	// frames in propagation do not count against it.
	QueueLen int
	// LossProb drops each frame independently with this probability,
	// modelling a lossy medium. Drawn from a deterministic per-pipe
	// generator seeded with LossSeed for reproducible runs.
	LossProb float64
	// LossSeed seeds the loss generator (0 uses a fixed default).
	LossSeed int64
}

// Mbps converts megabits per second to a BandwidthBps value.
func Mbps(n int64) int64 { return n * 1_000_000 }

// LinkStats counts one direction's activity.
type LinkStats struct {
	Enqueued  uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

// Link is a full-duplex point-to-point link between two attachment points A
// and B. Frames submitted on one side are delivered, in order, to the
// receiver installed on the other side after serialization and propagation
// delay. Each direction drops frames when its queue is full.
type Link struct {
	a2b *pipe
	b2a *pipe
}

// NewLink creates a link. Each direction runs one delivery goroutine while
// frames are in flight on it and none while it is idle; call Close to stop
// any that are running.
func NewLink(clk clock.Clock, cfg LinkConfig) *Link {
	return &Link{
		a2b: newPipe(clk, cfg),
		b2a: newPipe(clk, cfg),
	}
}

// A returns the A-side attachment point.
func (l *Link) A() *Port { return &Port{send: l.a2b, recv: l.b2a} }

// B returns the B-side attachment point.
func (l *Link) B() *Port { return &Port{send: l.b2a, recv: l.a2b} }

// StatsA2B returns counters for the A-to-B direction.
func (l *Link) StatsA2B() LinkStats { return l.a2b.stats() }

// StatsB2A returns counters for the B-to-A direction.
func (l *Link) StatsB2A() LinkStats { return l.b2a.stats() }

// Close stops the link's delivery goroutines and waits for them to exit.
// Frames still in flight are discarded.
func (l *Link) Close() {
	l.a2b.close()
	l.b2a.close()
}

// Port is one side's view of a link: Send pushes a frame toward the far
// side; SetReceiver installs the function invoked with frames arriving from
// the far side.
type Port struct {
	send *pipe
	recv *pipe
}

// Send enqueues a frame toward the far side. It never blocks; a full queue
// drops the frame.
func (p *Port) Send(frame []byte) { p.send.enqueue(frame) }

// SetReceiver installs the delivery function for inbound frames. The
// function runs on the link's delivery goroutine and must not block for
// long.
func (p *Port) SetReceiver(fn func([]byte)) { p.recv.setReceiver(fn) }

// Down marks this port's inbound and outbound directions as down (frames are
// silently dropped), simulating a pulled cable.
func (p *Port) Down() {
	p.send.setDown(true)
	p.recv.setDown(true)
}

// Up re-enables the port after Down.
func (p *Port) Up() {
	p.send.setDown(false)
	p.recv.setDown(false)
}

// timed is a frame in flight, stamped at enqueue with the instant its
// serialization starts and the instant it reaches the far side.
type timed struct {
	frame     []byte
	txStart   time.Time
	deliverAt time.Time
}

// pipe is one direction of a link: a FIFO of frames in flight, each with
// its delivery instant. enqueue computes the instants from the busy-until
// horizon of the wire, so bandwidth and latency cost no goroutine; one
// delivery goroutine runs while the FIFO is non-empty, waits on the clock
// for the head frame, and exits when the FIFO drains.
type pipe struct {
	clk  clock.Clock
	cfg  LinkConfig
	rng  *rand.Rand // nil unless cfg.LossProb > 0
	stop chan struct{}
	wg   sync.WaitGroup

	mu        sync.Mutex
	recv      func([]byte)
	down      bool
	closed    bool
	running   bool      // a delivery goroutine is draining q
	busyUntil time.Time // when the wire finishes the last frame queued
	q         []timed
	st        LinkStats
}

func newPipe(clk clock.Clock, cfg LinkConfig) *pipe {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultQueueLen
	}
	p := &pipe{clk: clk, cfg: cfg, stop: make(chan struct{})}
	if cfg.LossProb > 0 {
		p.rng = rand.New(rand.NewSource(cfg.LossSeed + 1))
	}
	return p
}

func (p *pipe) setReceiver(fn func([]byte)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recv = fn
}

func (p *pipe) setDown(down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = down
}

func (p *pipe) stats() LinkStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

func (p *pipe) enqueue(frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down || p.closed || (p.rng != nil && p.rng.Float64() < p.cfg.LossProb) {
		p.st.Dropped++
		return
	}
	now := p.clk.Now()
	// Frames still waiting for the wire sit at the tail: txStart only
	// grows along the FIFO.
	waiting := 0
	for i := len(p.q) - 1; i >= 0 && p.q[i].txStart.After(now); i-- {
		waiting++
	}
	if waiting >= p.cfg.QueueLen {
		p.st.Dropped++
		return
	}
	if p.busyUntil.Before(now) {
		p.busyUntil = now
	}
	t := timed{frame: append([]byte(nil), frame...), txStart: p.busyUntil} // the sender may reuse its buffer
	if p.cfg.BandwidthBps > 0 {
		p.busyUntil = p.busyUntil.Add(time.Duration(int64(len(frame)) * 8 * int64(time.Second) / p.cfg.BandwidthBps))
	}
	t.deliverAt = p.busyUntil.Add(p.cfg.Latency)
	p.q = append(p.q, t)
	p.st.Enqueued++
	if !p.running {
		p.running = true
		p.wg.Add(1)
		go p.deliver()
	}
}

func (p *pipe) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.q = nil
	p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
}

// deliver hands frames to the receiver in FIFO order, each no earlier
// than its deliverAt. It always waits when the head frame is early, so a
// lone frame pays the full delay; when a wait overshoots (scaled clocks),
// every frame already due flows out at once, so the average rate stays
// exact. It exits when the FIFO is empty or the pipe closes.
func (p *pipe) deliver() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		if p.closed || len(p.q) == 0 {
			p.running = false
			p.q = nil
			p.mu.Unlock()
			return
		}
		head := p.q[0]
		if wait := head.deliverAt.Sub(p.clk.Now()); wait > 0 {
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-p.clk.After(wait):
			}
			continue
		}
		p.q[0] = timed{}
		p.q = p.q[1:]
		var recv func([]byte)
		if p.down {
			p.st.Dropped++
		} else {
			recv = p.recv
			p.st.Delivered++
			p.st.Bytes += uint64(len(head.frame))
		}
		p.mu.Unlock()
		if recv != nil {
			recv(head.frame)
		}
	}
}
