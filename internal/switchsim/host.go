package switchsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"attain/internal/clock"
	"attain/internal/evloop"
	"attain/internal/openflow"
	"attain/internal/telemetry"
)

// Host runs many switches' control channels on a small set of shared
// event-loop shards instead of goroutines-per-switch. A hosted switch is
// never Start()ed: Admit dials its controller, completes the HELLO
// exchange, and binds the session to a shard chosen by DPID hash; from
// then on one reader goroutine feeds the shard's intake queue and the
// shard loop owns all of the session's timers (echo liveness, flow
// expiry) and its outbound writes (coalesced per batch, like the
// injector's shard core — both ride internal/evloop).
//
// At 5,000 switches this replaces ~5 goroutines per switch (connLoop,
// expiryLoop, writePump, echo prober, handshake reader) with one reader
// per switch plus a fixed number of shard loops.
type Host struct {
	cfg  HostConfig
	clk  clock.Clock
	tele *telemetry.Telemetry

	shards []*hostShard
	stop   chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	stopping bool
	started  bool

	imbalance *telemetry.Counter
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

const (
	// hostBatch bounds how many events one loop iteration processes
	// between flushes.
	hostBatch = 256
	// hostQueueLen is the per-shard intake preallocation. Hosted intake
	// never blocks producers (readers and cross-loop writes both use
	// non-blocking pushes, so loops can never deadlock on each other's
	// backpressure); the queue-depth gauge tracks overshoot.
	hostQueueLen = 4096
)

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

// hostShard is one event loop hosting a subset of the switches.
type hostShard struct {
	h  *Host
	id int

	q   *evloop.Queue[hostEvent]
	out *evloop.Coalescer

	// Loop-owned: the live sessions, those with pending writes this batch,
	// and the next flow-expiry sweep of every switch admitted so far. A
	// switch stays in expiry while its session is down: its flows keep
	// timing out whether or not a controller hears about it.
	conns   map[*hostedConn]struct{}
	touched []*hostedConn
	expiry  map[*Switch]time.Time

	processed atomic.Uint64
	batchN    uint64

	msgs    *telemetry.Counter
	batches *telemetry.Counter
	batchSz *telemetry.Histogram
}

// hostedConn is the shard-hosted implementation of ctrlChan: sends queue
// pooled frames to the owning shard, which coalesces them into one
// Conn.Write per session per batch.
type hostedConn struct {
	sw     *Switch
	sh     *hostShard
	conn   net.Conn
	closed chan struct{}
	once   sync.Once

	// Loop-owned session state (only the shard loop touches these).
	lastRx     time.Time
	nextEcho   time.Time
	pend       [][]byte
	pendQueued bool
	open       bool
}

func (hc *hostedConn) close() {
	hc.once.Do(func() {
		close(hc.closed)
		_ = hc.conn.Close()
	})
}

// send implements ctrlChan. The hosted path cannot block (writes drain at
// the next batch), so failure means the channel is down.
func (hc *hostedConn) send(xid uint32, msg openflow.Message) error {
	if !hc.sendAsync(xid, msg) {
		return net.ErrClosed
	}
	return nil
}

// sendAsync implements ctrlChan: marshal into a pooled buffer and hand it
// to the owning shard. Safe from any goroutine, including other shard
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
	if !hc.sh.q.PushNoWait(hostEvent{kind: hevWrite, hc: hc, buf: buf}) {
		openflow.PutBuffer(buf)
		return false
	}
	return true
}

// NewHost builds a host; Start launches its shard loops.
func NewHost(cfg HostConfig) *Host {
	cfg.setDefaults()
	h := &Host{
		cfg:       cfg,
		clk:       cfg.Clock,
		tele:      cfg.Telemetry,
		stop:      make(chan struct{}),
		imbalance: cfg.Telemetry.Counter("switchsim.host.imbalance"),
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &hostShard{
			h:  h,
			id: i,
			q: evloop.NewQueue[hostEvent](evloop.Config{
				Capacity: hostQueueLen,
				Depth:    cfg.Telemetry.Gauge(fmt.Sprintf("switchsim.host.shard.%d.queue_depth", i)),
			}),
			out:     evloop.NewCoalescer(0),
			conns:   make(map[*hostedConn]struct{}),
			expiry:  make(map[*Switch]time.Time),
			msgs:    cfg.Telemetry.Counter(fmt.Sprintf("switchsim.host.shard.%d.msgs", i)),
			batches: cfg.Telemetry.Counter(fmt.Sprintf("switchsim.host.shard.%d.batches", i)),
			batchSz: cfg.Telemetry.Histogram(fmt.Sprintf("switchsim.host.shard.%d.batch_size", i)),
		}
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

	// HELLO goes out synchronously; the reader goroutine waits for the
	// peer's HELLO and then hands the session to the shard loop.
	buf, err := openflow.AppendMessage(openflow.GetBuffer(), sw.nextXid(), &openflow.Hello{})
	if err != nil {
		openflow.PutBuffer(buf)
		hc.close()
		return err
	}
	_, werr := raw.Write(buf)
	openflow.PutBuffer(buf)
	if werr != nil {
		hc.close()
		werr = fmt.Errorf("handshake: %w", werr)
		if sw.cfg.OnConnError != nil {
			sw.cfg.OnConnError(werr)
		}
		return werr
	}

	hsDone := make(chan error, 1)
	if !h.goTracked(func() { h.readLoop(hc, hsDone) }) {
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
// handshake, then decodes messages into shard events. Decoded messages do
// not alias the reader's pooled buffer, so handing them to the loop is
// safe. hevOpen is pushed before hsDone resolves and before any hevMsg,
// so the loop always registers the session before its first message.
func (h *Host) readLoop(hc *hostedConn, hsDone chan<- error) {
	mr := openflow.NewMessageReader(hc.conn)
	defer mr.Close()

	_, msg, err := mr.Read()
	switch {
	case err != nil:
		hsDone <- err
		hc.close()
		return
	case msg.Type() != openflow.TypeHello:
		hsDone <- fmt.Errorf("expected HELLO, got %s", msg.Type())
		hc.close()
		return
	case !hc.sh.q.PushNoWait(hostEvent{kind: hevOpen, hc: hc}):
		hsDone <- net.ErrClosed
		hc.close()
		return
	}
	hsDone <- nil

	for {
		hdr, msg, err := mr.Read()
		if err != nil {
			hc.sh.q.PushNoWait(hostEvent{kind: hevClosed, hc: hc})
			hc.close()
			return
		}
		hc.sh.q.PushNoWait(hostEvent{kind: hevMsg, hc: hc, hdr: hdr, msg: msg})
	}
}

// RetryLater schedules a background re-admission of sw: redial after its
// ReconnectInterval, retrying until Admit succeeds or the host stops.
// Bring-up code uses this to retry transiently failed admissions without
// stalling its wave.
func (h *Host) RetryLater(sw *Switch) { h.reconnectLater(sw) }

// reconnectLater redials sw after its ReconnectInterval, retrying until
// Admit succeeds or the host stops — the hosted analogue of connLoop's
// redial path.
func (h *Host) reconnectLater(sw *Switch) {
	h.goTracked(func() {
		for {
			select {
			case <-h.stop:
				return
			case <-h.clk.After(sw.cfg.ReconnectInterval):
			}
			sw.mu.Lock()
			sw.stats.Reconnects++
			sw.mu.Unlock()
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

// run is the shard loop: drain the intake in swap batches until the host
// stops, then tear down.
func (sh *hostShard) run() {
	defer sh.shutdown()
	for {
		batch := sh.q.Drain(sh.h.stop)
		if batch == nil {
			return
		}
		sh.drainBatch(batch)
	}
}

// tickLoop feeds the loop its timer granularity. One timer per shard
// replaces per-switch echo-prober and expiry goroutines; per-connection
// deadlines are loop-owned and checked against the batch timestamp.
func (sh *hostShard) tickLoop() {
	for {
		select {
		case <-sh.h.stop:
			return
		case <-sh.h.clk.After(sh.h.cfg.Tick):
			sh.q.PushQuiet(hostEvent{kind: hevTick})
		}
	}
}

// drainBatch processes one queue swap in hostBatch-sized chunks with a
// single clock read per chunk, then flushes every touched session's writes
// with one coalesced Conn.Write each.
func (sh *hostShard) drainBatch(events []hostEvent) {
	for len(events) > 0 {
		n := len(events)
		if n > hostBatch {
			n = hostBatch
		}
		chunk := events[:n]
		events = events[n:]
		now := sh.h.clk.Now()
		msgs := 0
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
		sh.flushAll()
		sh.batchSz.Observe(int64(n))
		sh.batches.Inc()
		if msgs > 0 {
			sh.msgs.Add(uint64(msgs))
			sh.processed.Add(uint64(msgs))
		}
		sh.batchN++
		if sh.batchN%64 == 0 && len(sh.h.shards) > 1 {
			sh.observeImbalance()
		}
	}
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
	for _, fr := range hc.pend {
		openflow.PutBuffer(fr)
	}
	hc.pend = hc.pend[:0]
	hc.pendQueued = false
	hc.sw.setConnected(false, nil)
	sh.h.reconnectLater(hc.sw)
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
	hc.pend = append(hc.pend, buf)
	if !hc.pendQueued {
		hc.pendQueued = true
		sh.touched = append(sh.touched, hc)
	}
}

// tick runs the timer checks against the batch timestamp: per session,
// echo-timeout liveness (close and let the reader deliver hevClosed) and
// echo probing; per admitted switch, connected or not, flow-expiry sweeps.
func (sh *hostShard) tick(now time.Time) {
	for hc := range sh.conns {
		sw := hc.sw
		if now.Sub(hc.lastRx) > sw.cfg.EchoTimeout {
			hc.close()
			continue
		}
		if !now.Before(hc.nextEcho) {
			hc.sendAsync(sw.nextXid(), &openflow.EchoRequest{Data: []byte(sw.cfg.Name)})
			hc.nextEcho = now.Add(sw.cfg.EchoInterval)
		}
	}
	for sw, next := range sh.expiry {
		if !now.Before(next) {
			sw.expireOnce(now)
			sh.expiry[sw] = now.Add(sw.cfg.ExpiryInterval)
		}
	}
}

// flushAll writes every touched session's pending frames with one
// coalesced write; a write error tears the session down (the reader then
// delivers hevClosed).
func (sh *hostShard) flushAll() {
	for i, hc := range sh.touched {
		if len(hc.pend) > 0 {
			if _, err := sh.out.Flush(hc.conn, hc.pend, openflow.PutBuffer); err != nil {
				hc.close()
			}
			hc.pend = hc.pend[:0]
		}
		hc.pendQueued = false
		sh.touched[i] = nil
	}
	sh.touched = sh.touched[:0]
}

// shutdown tears the shard down after the loop exits: recycle queued
// writes, then close every hosted session and recycle its pending frames.
func (sh *hostShard) shutdown() {
	for _, ev := range sh.q.Close() {
		if ev.kind == hevWrite {
			openflow.PutBuffer(ev.buf)
		}
	}
	for hc := range sh.conns {
		hc.close()
		for _, fr := range hc.pend {
			openflow.PutBuffer(fr)
		}
		hc.pend = nil
		hc.pendQueued = false
		hc.open = false
		delete(sh.conns, hc)
	}
	sh.touched = sh.touched[:0]
}

// observeImbalance mirrors the injector's shard-imbalance probe: bump the
// host-wide counter when the busiest shard has processed more than twice
// the idlest (plus one batch of slack).
func (sh *hostShard) observeImbalance() {
	min, max := ^uint64(0), uint64(0)
	for _, other := range sh.h.shards {
		p := other.processed.Load()
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if max > 2*min+hostBatch {
		sh.h.imbalance.Inc()
	}
}
