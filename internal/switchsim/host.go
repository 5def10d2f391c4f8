package switchsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"attain/internal/clock"
	"attain/internal/evloop"
	"attain/internal/openflow"
	"attain/internal/telemetry"
)

// Host runs switches' control channels on a small set of shared
// event-loop shards instead of goroutines-per-switch, and it is the only
// control-channel implementation: a fabric admits thousands of switches to
// one Host, and Switch.Start admits its switch to a one-switch Host of its
// own. Admit dials the controller, completes the HELLO exchange, and binds
// the session to a shard chosen by DPID hash; from then on one reader
// goroutine feeds the shard's intake queue and the shard loop owns all of
// the session's timers (echo liveness, flow expiry) and its outbound
// writes (coalesced per batch). Each shard is an evloop.Loop, the loop the
// injector's shard core runs on too.
//
// A hosted switch therefore costs one reader goroutine; the shard loops
// and their tick sources are shared by every switch on the host.
type Host struct {
	cfg HostConfig
	clk clock.Clock

	shards []*hostShard
	stop   chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	stopping bool
	started  bool
}

// HostConfig parameterizes a Host.
type HostConfig struct {
	// Shards is the number of event-loop shards (default 1).
	Shards int
	// Tick is the shard timer granularity for echo liveness and flow
	// expiry checks (default 100ms). Per-connection deadlines are kept in
	// loop-owned state and checked once per tick, replacing per-switch
	// timer goroutines.
	Tick time.Duration
	// Seed perturbs the DPID→shard placement hash.
	Seed int64
	// Clock supplies time (default real time).
	Clock clock.Clock
	// Telemetry receives per-shard counters (nil disables).
	Telemetry *telemetry.Telemetry
}

func (c *HostConfig) setDefaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Tick <= 0 {
		c.Tick = 100 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
}

// Event kinds of the hosted control-channel loop. Events are small values
// (no pooling needed): the queue slices recycle via evloop's swap.
const (
	hevOpen   = uint8(iota + 1) // handshake done, register the session
	hevMsg                      // one decoded controller message
	hevWrite                    // one outbound frame (pooled buffer)
	hevClosed                   // reader saw EOF/error, unregister
	hevTick                     // timer granularity: echo + expiry sweep
)

type hostEvent struct {
	kind uint8
	hc   *hostedConn
	hdr  openflow.Header
	msg  openflow.Message
	buf  []byte
}

// hostShard is one event loop hosting a subset of the switches; the loop
// mechanism is evloop.Loop's, and this type keeps the hosted sessions'
// event semantics: open, message, write, close and tick.
type hostShard struct {
	h    *Host
	loop *evloop.Loop[hostEvent]

	// Loop-owned: the live sessions and the next flow-expiry sweep of every
	// switch admitted so far. A switch stays in expiry while its session is
	// down: its flows keep timing out whether or not a controller hears
	// about it.
	conns  map[*hostedConn]struct{}
	expiry map[*Switch]time.Time
}

// hostedConn is a switch's control channel: sends queue pooled frames to
// the owning shard, which coalesces them into one Conn.Write per session
// per batch. All message handlers send through it.
type hostedConn struct {
	sw     *Switch
	sh     *hostShard
	conn   net.Conn
	closed chan struct{}
	once   sync.Once

	// Loop-owned session state (only the shard loop touches these).
	lastRx   time.Time
	nextEcho time.Time
	sink     evloop.Sink
	open     bool
}

func (hc *hostedConn) close() {
	hc.once.Do(func() {
		close(hc.closed)
		_ = hc.conn.Close()
	})
}

// send queues a message for the next batch flush. It cannot block (writes
// drain at the next batch), so failure means the channel is down.
func (hc *hostedConn) send(xid uint32, msg openflow.Message) error {
	if !hc.sendAsync(xid, msg) {
		return net.ErrClosed
	}
	return nil
}

// sendAsync marshals msg into a pooled buffer and hands it to the owning
// shard, reporting success. Safe from any goroutine, including other shard
// loops — the push never blocks, so loops cannot deadlock on each other.
func (hc *hostedConn) sendAsync(xid uint32, msg openflow.Message) bool {
	select {
	case <-hc.closed:
		return false
	default:
	}
	buf, err := openflow.AppendMessage(openflow.GetBuffer(), xid, msg)
	if err != nil {
		openflow.PutBuffer(buf)
		return false
	}
	if !hc.sh.loop.PushNoWait(hostEvent{kind: hevWrite, hc: hc, buf: buf}) {
		openflow.PutBuffer(buf)
		return false
	}
	return true
}

// NewHost builds a host; Start launches its shard loops.
func NewHost(cfg HostConfig) *Host {
	cfg.setDefaults()
	h := &Host{
		cfg:  cfg,
		clk:  cfg.Clock,
		stop: make(chan struct{}),
	}
	group := evloop.NewGroup(cfg.Telemetry.Counter("switchsim.host.imbalance"))
	for i := 0; i < cfg.Shards; i++ {
		sh := &hostShard{
			h:      h,
			conns:  make(map[*hostedConn]struct{}),
			expiry: make(map[*Switch]time.Time),
		}
		// Hosted intake never blocks producers (readers and cross-loop
		// writes both push without waiting, so loops can never deadlock on
		// each other's backpressure), so the queue is unbounded.
		sh.loop = evloop.NewLoop(evloop.LoopConfig[hostEvent]{
			Clock:     cfg.Clock,
			Telemetry: cfg.Telemetry,
			Name:      fmt.Sprintf("switchsim.host.shard.%d", i),
			Group:     group,
			Handle:    sh.handle,
			Failed:    func(s *evloop.Sink, _, _ int, _ error) { s.Owner.(*hostedConn).close() },
			Drop:      dropEvent,
			Recycle:   openflow.PutBuffer,
		})
		h.shards = append(h.shards, sh)
	}
	return h
}

// Shards reports the configured shard count.
func (h *Host) Shards() int { return len(h.shards) }

// Start launches the shard loops and their tick sources.
func (h *Host) Start() {
	h.mu.Lock()
	if h.started || h.stopping {
		h.mu.Unlock()
		return
	}
	h.started = true
	h.mu.Unlock()
	for _, sh := range h.shards {
		sh := sh
		h.goTracked(sh.run)
		h.goTracked(sh.tickLoop)
	}
}

// Stop shuts every hosted session and shard loop down and waits for them.
func (h *Host) Stop() {
	h.mu.Lock()
	if h.stopping {
		h.mu.Unlock()
		h.wg.Wait()
		return
	}
	h.stopping = true
	h.mu.Unlock()
	close(h.stop)
	h.wg.Wait()
}

// goTracked runs fn on a wg-tracked goroutine unless the host is
// stopping; the stopping check and wg.Add happen under one lock so Stop's
// wg.Wait can never race a late Add.
func (h *Host) goTracked(fn func()) bool {
	h.mu.Lock()
	if h.stopping {
		h.mu.Unlock()
		return false
	}
	h.wg.Add(1)
	h.mu.Unlock()
	go func() {
		defer h.wg.Done()
		fn()
	}()
	return true
}

// shardFor maps a DPID to its owning shard (splitmix64 over DPID and the
// placement seed — deterministic for a given config, like the injector's
// session placement).
func (h *Host) shardFor(dpid uint64) *hostShard {
	z := dpid + (uint64(h.cfg.Seed)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return h.shards[z%uint64(len(h.shards))]
}

// Admit dials sw's controller, performs the HELLO exchange, and binds the
// session to its shard. It blocks until the handshake completes (bounded
// by the switch's HandshakeTimeout), so callers admitting in waves get
// bounded outstanding handshakes for free. Dial and handshake failures
// are reported through sw's OnConnError hook as well as the return value.
func (h *Host) Admit(sw *Switch) error {
	sh := h.shardFor(sw.cfg.DPID)
	raw, err := sw.cfg.Transport.Dial(sw.cfg.ControllerAddr)
	if err != nil {
		err = fmt.Errorf("dial controller: %w", err)
		if sw.cfg.OnConnError != nil {
			sw.cfg.OnConnError(err)
		}
		return err
	}
	hc := &hostedConn{sw: sw, sh: sh, conn: raw, closed: make(chan struct{})}
	hc.sink = evloop.Sink{W: raw, Owner: hc}

	// Our HELLO goes out on its own goroutine while the reader waits for
	// the peer's: over an unbuffered transport each side's HELLO write
	// blocks until the other side reads, and closing hc (timeout, Stop)
	// unblocks a write to a peer that never reads.
	hello := make(chan error, 1)
	hsDone := make(chan error, 1)
	if !h.goTracked(func() { hello <- openflow.WriteMessage(raw, sw.nextXid(), &openflow.Hello{}) }) ||
		!h.goTracked(func() { h.readLoop(hc, hello, hsDone) }) {
		hc.close()
		return net.ErrClosed
	}
	select {
	case err := <-hsDone:
		if err != nil {
			hc.close()
			err = fmt.Errorf("handshake: %w", err)
			if sw.cfg.OnConnError != nil {
				sw.cfg.OnConnError(err)
			}
			return err
		}
		return nil
	case <-h.clk.After(sw.cfg.HandshakeTimeout):
		hc.close()
		err := errors.New("handshake: timed out waiting for HELLO")
		if sw.cfg.OnConnError != nil {
			sw.cfg.OnConnError(err)
		}
		return err
	case <-h.stop:
		hc.close()
		return net.ErrClosed
	}
}

// readLoop is the one goroutine a hosted session keeps: it completes the
// handshake, then decodes messages into shard events, all through one
// frame reader, so bytes read ahead with the HELLO reach the loop.
// Decoded messages do not alias the reader's pooled buffers. hevOpen is
// pushed once our HELLO is written (so no reply can precede it on the
// wire), before hsDone resolves and before any hevMsg, so the loop always
// registers the session before its first message.
func (h *Host) readLoop(hc *hostedConn, hello <-chan error, hsDone chan<- error) {
	fr := openflow.NewFrameReader(hc.conn)
	_, msg, err := fr.ReadMessage()
	if werr := <-hello; err == nil {
		err = werr
	}
	switch {
	case err != nil:
		hsDone <- err
		hc.close()
		return
	case msg.Type() != openflow.TypeHello:
		hsDone <- fmt.Errorf("expected HELLO, got %s", msg.Type())
		hc.close()
		return
	case !hc.sh.loop.PushNoWait(hostEvent{kind: hevOpen, hc: hc}):
		hsDone <- net.ErrClosed
		hc.close()
		return
	}
	hsDone <- nil

	for {
		hdr, msg, err := fr.ReadMessage()
		if err != nil {
			hc.sh.loop.PushNoWait(hostEvent{kind: hevClosed, hc: hc})
			hc.close()
			return
		}
		hc.sh.loop.PushNoWait(hostEvent{kind: hevMsg, hc: hc, hdr: hdr, msg: msg})
	}
}

// RetryLater schedules a background re-admission of sw: redial after its
// ReconnectInterval, retrying until Admit succeeds or the host stops.
// Bring-up code uses this to retry transiently failed admissions without
// stalling its wave, Start to retry a failed first admission, and a
// dropped session to redial. Each attempt counts one reconnect.
func (h *Host) RetryLater(sw *Switch) {
	h.goTracked(func() {
		for {
			select {
			case <-h.stop:
				return
			case <-h.clk.After(sw.cfg.ReconnectInterval):
			}
			sw.ctrs.reconnects.Inc()
			if err := h.Admit(sw); err == nil {
				return
			}
			select {
			case <-h.stop:
				return
			default:
			}
		}
	})
}

// run is the shard loop: handle batches until the host stops, then tear
// down — the loop recycles queued writes and pending frames, and every
// hosted session is closed.
func (sh *hostShard) run() {
	sh.loop.Run(sh.h.stop)
	sh.loop.Close()
	for hc := range sh.conns {
		hc.close()
		hc.open = false
		delete(sh.conns, hc)
	}
}

// tickLoop feeds the loop its timer granularity. One timer per shard
// serves every hosted switch's echo and expiry deadlines, which are
// loop-owned and checked against the batch timestamp.
func (sh *hostShard) tickLoop() {
	for {
		select {
		case <-sh.h.stop:
			return
		case <-sh.h.clk.After(sh.h.cfg.Tick):
			sh.loop.PushQuiet(hostEvent{kind: hevTick})
		}
	}
}

// handle runs one chunk of events stamped now; the loop then flushes every
// touched session's writes with one coalesced Conn.Write each.
func (sh *hostShard) handle(chunk []hostEvent, now time.Time) (msgs int) {
	for i := range chunk {
		ev := &chunk[i]
		switch ev.kind {
		case hevOpen:
			sh.openConn(ev.hc, now)
		case hevMsg:
			ev.hc.lastRx = now
			ev.hc.sw.handleControl(ev.hc, ev.hdr, ev.msg)
			msgs++
		case hevWrite:
			sh.queueWrite(ev.hc, ev.buf)
		case hevClosed:
			sh.dropConn(ev.hc)
		case hevTick:
			sh.tick(now)
		}
		*ev = hostEvent{}
	}
	return msgs
}

func (sh *hostShard) openConn(hc *hostedConn, now time.Time) {
	sw := hc.sw
	hc.open = true
	hc.lastRx = now
	hc.nextEcho = now.Add(sw.cfg.EchoInterval)
	sh.conns[hc] = struct{}{}
	if _, admitted := sh.expiry[sw]; !admitted {
		sh.expiry[sw] = now.Add(sw.cfg.ExpiryInterval)
	}
	sw.setConnected(true, hc)
}

// dropConn unregisters a dead session and schedules its redial. The
// reader pushes hevClosed exactly once and always after hevOpen, and a
// reconnect's new hevOpen lands on the same shard (DPID placement) after
// this event, so open/close interleavings stay ordered.
func (sh *hostShard) dropConn(hc *hostedConn) {
	if !hc.open {
		return
	}
	hc.open = false
	delete(sh.conns, hc)
	sh.loop.Discard(&hc.sink)
	hc.sw.setConnected(false, nil)
	sh.h.RetryLater(hc.sw)
}

// queueWrite appends an outbound frame to its session's pending list for
// the batch-end flush; frames for a closed session are recycled.
func (sh *hostShard) queueWrite(hc *hostedConn, buf []byte) {
	select {
	case <-hc.closed:
		openflow.PutBuffer(buf)
		return
	default:
	}
	sh.loop.Send(&hc.sink, buf)
}

// tick runs the timer checks against the batch timestamp: per session,
// echo-timeout liveness (close and let the reader deliver hevClosed) and
// echo probing; per admitted switch, connected or not, flow-expiry sweeps.
// Deadlines advance from the previous deadline, not from now, so drain
// latency never pushes a probe or sweep past the next tick.
func (sh *hostShard) tick(now time.Time) {
	for hc := range sh.conns {
		sw := hc.sw
		if now.Sub(hc.lastRx) > sw.cfg.EchoTimeout {
			hc.close()
			continue
		}
		if !now.Before(hc.nextEcho) {
			hc.sendAsync(sw.nextXid(), &openflow.EchoRequest{Data: []byte(sw.cfg.Name)})
			hc.nextEcho = nextDeadline(hc.nextEcho, now, sw.cfg.EchoInterval)
		}
	}
	for sw, next := range sh.expiry {
		if !now.Before(next) {
			sw.expireOnce(now)
			sh.expiry[sw] = nextDeadline(next, now, sw.cfg.ExpiryInterval)
		}
	}
}

// nextDeadline is the deadline after prev, which has fired at now: one
// interval on from prev, or from now if a whole interval has already
// slipped by.
func nextDeadline(prev, now time.Time, interval time.Duration) time.Time {
	if next := prev.Add(interval); next.After(now) {
		return next
	}
	return now.Add(interval)
}

// dropEvent recycles an event still queued when the loop closes.
func dropEvent(ev hostEvent) {
	if ev.kind == hevWrite {
		openflow.PutBuffer(ev.buf)
	}
}
