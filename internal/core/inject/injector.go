package inject

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"attain/internal/clock"
	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/evloop"
	"attain/internal/netem"
	"attain/internal/openflow"
	"attain/internal/telemetry"
)

// Config describes a runtime injector instance.
type Config struct {
	// System, Attacker, and Attack are the compiled models.
	System   *model.System
	Attacker *model.AttackerModel
	Attack   *lang.Attack
	// Transport supplies the control-plane network.
	Transport netem.Transport
	// Clock drives delays, sleeps, and timestamps.
	Clock clock.Clock
	// ProxyAddr maps each control-plane connection to the address the
	// injector listens on for that connection's switch. Defaults to
	// DefaultProxyAddr.
	ProxyAddr func(model.Conn) string
	// EventBuffer sizes each shard loop's intake queue (default 4096).
	EventBuffer int
	// LogWriter optionally streams log lines.
	LogWriter io.Writer
	// LogLimit bounds retained in-memory events (default 100k).
	LogLimit int
	// StochasticSeed seeds the generator behind probabilistic rules
	// (Rule.Prob), keeping stochastic attacks reproducible. 0 uses a
	// fixed default.
	StochasticSeed int64
	// Connections restricts this instance to proxying a subset of the
	// system's control-plane connections. Nil proxies all of them. Used
	// for distributed injection (§VIII-C): several instances with
	// disjoint subsets share a SharedState via State.
	Connections []model.Conn
	// State shares σ and Δ among injector instances; nil uses a private
	// store (the centralized design).
	State StateStore
	// Telemetry, when non-nil, receives per-channel counters and verdict/
	// rule/state trace events from the executor. Nil disables collection at
	// no cost beyond a pointer check (see package telemetry).
	Telemetry *telemetry.Telemetry
	// AsyncDelays schedules DELAYMESSAGE deliveries on timers instead of
	// blocking the executor. The default (false) is the paper's
	// centralized semantics: a delay stalls the whole pipeline,
	// preserving total order. Async delays trade that ordering away —
	// later messages can overtake a delayed one — for pipeline liveness,
	// the §VIII-C consistency/latency trade-off in miniature.
	AsyncDelays bool
	// Templates adds per-instance message templates consulted by
	// INJECTNEWMESSAGE actions before the global vocabulary. Fabric-level
	// attacks use this to register crafted frames (e.g. a poisoned LLDP
	// PACKET_IN) scoped to one experiment.
	Templates map[string]func() openflow.Message
	// LeanLog skips the per-message log event (and its formatted detail
	// string) on the hot path while keeping counters and per-type message
	// counts exact. Rule, state, error, and session events are always
	// logged. With LeanLog set and telemetry disabled, steady-state
	// passthrough proxying performs zero heap allocations per message.
	LeanLog bool
	// Shards is the number of event loops. Sessions are assigned to a loop
	// at accept time (seeded by StochasticSeed, so assignment is
	// reproducible); each loop owns its sessions' conns and executor state
	// shared-nothing and drains frames in batches with one coalesced write
	// per touched session. Zero or less means one loop: Algorithm 1's
	// single-threaded executor and its global total order, which the paper
	// testbed uses. More loops order events totally per loop only (the
	// §VIII-C trade-off) and are for session counts one core cannot carry.
	Shards int
	// Detection, when non-nil, observes every frame the injector emits
	// onto the control channel and is scored against ground truth (see
	// DetectionHook). With Shards > 1 the hook is called concurrently.
	Detection DetectionHook
}

// DefaultProxyAddr names proxy listen addresses for in-memory transports.
func DefaultProxyAddr(conn model.Conn) string {
	return fmt.Sprintf("attain-proxy:%s:%s", conn.Controller, conn.Switch)
}

// Injector is the runtime injector: one proxy listener per control-plane
// connection, feeding the attack executor of the shard loop that owns the
// connection's session.
type Injector struct {
	cfg  Config
	clk  clock.Clock
	log  *Log
	tele *telemetry.Telemetry
	// state holds σ and Δ, shared by every shard's executor so state
	// transitions and deque storage stay consistent across loops.
	state StateStore
	// counters maps each proxied connection to its pre-resolved telemetry
	// counters; read-only after New.
	counters map[model.Conn]*connCounters
	// prog is the attack compiled for the executors; read-only after New.
	prog *program
	// shards holds the batch-draining event loops; read-only after New.
	// loops groups their evloop.Loops for the imbalance probe.
	shards []*shard
	loops  *evloop.Group

	mu        sync.Mutex
	listeners []net.Listener
	sessions  map[model.Conn]*session
	syscmd    map[model.NodeID]func(cmd string) error
	started   bool

	msgID atomic.Uint64
	// injectXid issues xids for INJECTMESSAGE frames. It is separate from
	// msgID so injected xids are a stable sequence regardless of how many
	// frames were proxied, and forwarded frames keep their xid bytes
	// untouched.
	injectXid atomic.Uint32
	// Detection confusion matrix (see detect.go). Atomics: shard loops
	// score concurrently.
	detTP, detFP, detFN, detTN atomic.Uint64
	stop                       chan struct{}
	wg                         sync.WaitGroup
}

// eventPool recycles executor events: readers allocate nothing per message
// in steady state, and the shard loop returns each event after processing
// it.
var eventPool = sync.Pool{New: func() interface{} { return new(event) }}

// recycle drops the event's pointer fields and returns it to the pool.
// Only the pointers need clearing (GC retention); whole-struct clears
// (*ev = event{}) showed up as duffcopy on the hot path, and every pool
// user overwrites all fields with a full literal on Get.
func (ev *event) recycle() {
	ev.raw = nil
	ev.sess = nil
	ev.done = nil
	eventPool.Put(ev)
}

// event is one unit of work for a shard loop: a proxied message, an
// outbound frame (eventWrite), or a barrier.
type event struct {
	kind    EventKind // EventMessage or EventConn
	conn    model.Conn
	dir     lang.Direction
	raw     []byte
	sess    *session
	closing bool
	// done, when non-nil, is closed once the executor has fully
	// processed the event (used by tests for synchronization).
	done chan struct{}
}

// session is one live proxied control-plane connection: the accepted
// switch-side conn and the dialed controller-side conn. There are no
// writer goroutines: the owning shard's loop appends outgoing frames to the
// per-direction sinks during a batch and writes each direction with one
// coalesced flush at batch end, so a slow peer is absorbed by the
// transport's buffers — the role the OS socket buffers played for the
// paper's Python injector. The sinks are owned by the shard loop
// exclusively.
type session struct {
	conn       model.Conn
	switchSide net.Conn
	ctrlSide   net.Conn
	closeOnce  sync.Once
	closed     chan struct{}
	// Hot-path caches resolved once at open (see Injector.bindSession):
	// the attacker's capability grant, the telemetry counters (which carry
	// the mask of rules watching the connection), and the log's stats
	// record for this connection. Grants and the counters map
	// are immutable after New, so caching preserves semantics while the
	// per-message path skips three Conn-keyed map lookups.
	caps  model.CapabilitySet
	ctrs  *connCounters
	stats *Stats
	// pend accumulates this batch's counts for stats, published in bulk by
	// shard.flushBook; booked marks the session as on the shard's list of
	// sessions to publish. Owned by the shard loop.
	pend   Stats
	booked bool

	sh       *shard
	toSwitch evloop.Sink
	toCtrl   evloop.Sink
}

func newSession(conn model.Conn, swConn, ctrlConn net.Conn, sh *shard) *session {
	s := &session{
		conn:       conn,
		switchSide: swConn,
		ctrlSide:   ctrlConn,
		closed:     make(chan struct{}),
		sh:         sh,
	}
	s.toSwitch = evloop.Sink{W: swConn, Owner: s}
	s.toCtrl = evloop.Sink{W: ctrlConn, Owner: s}
	return s
}

func (s *session) close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		_ = s.switchSide.Close()
		_ = s.ctrlSide.Close()
	})
}

// New creates an injector. Call Start to begin proxying.
func New(cfg Config) (*Injector, error) {
	if cfg.System == nil || cfg.Attack == nil {
		return nil, errors.New("inject: system and attack are required")
	}
	if cfg.Attacker == nil {
		cfg.Attacker = model.NewAttackerModel()
	}
	if cfg.Transport == nil {
		return nil, errors.New("inject: transport is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.New()
	}
	if cfg.ProxyAddr == nil {
		cfg.ProxyAddr = DefaultProxyAddr
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 4096
	}
	if err := cfg.Attack.Validate(cfg.System, cfg.Attacker); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	inj := &Injector{
		cfg:      cfg,
		clk:      cfg.Clock,
		log:      NewLog(cfg.LogLimit, cfg.LogWriter),
		tele:     cfg.Telemetry,
		sessions: make(map[model.Conn]*session),
		syscmd:   make(map[model.NodeID]func(string) error),
		stop:     make(chan struct{}),
	}
	inj.counters = buildConnCounters(inj.tele, inj.proxiedConns())
	inj.prog = compileAttack(cfg.Attack)
	inj.prog.bindWatches(inj.counters)
	inj.state = cfg.State
	if inj.state == nil {
		inj.state = newLocalState(cfg.Attack.Start)
	}
	inj.loops = evloop.NewGroup(inj.tele.Counter("injector.shards.imbalance"))
	inj.shards = make([]*shard, cfg.Shards)
	for i := range inj.shards {
		inj.shards[i] = newShard(inj, i)
	}
	return inj, nil
}

// Log exposes the injector's event log.
func (inj *Injector) Log() *Log { return inj.log }

// CurrentState returns the current attack state name σ.
func (inj *Injector) CurrentState() string { return inj.state.CurrentState() }

// Storage exposes the attack's deque storage Δ (for monitors and tests).
func (inj *Injector) Storage() *lang.Storage { return inj.state.Storage() }

// ProxyAddrFor returns the address switches should dial for conn.
func (inj *Injector) ProxyAddrFor(conn model.Conn) string {
	return inj.cfg.ProxyAddr(conn)
}

// RegisterSysCmd installs the runner invoked by SYSCMD(host, cmd) actions.
func (inj *Injector) RegisterSysCmd(host model.NodeID, fn func(cmd string) error) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.syscmd[host] = fn
}

// Start opens one proxy listener per control-plane connection and launches
// the shard loops.
func (inj *Injector) Start() error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.started {
		return errors.New("inject: already started")
	}
	for _, conn := range inj.proxiedConns() {
		addr := inj.cfg.ProxyAddr(conn)
		ln, err := inj.cfg.Transport.Listen(addr)
		if err != nil {
			for _, l := range inj.listeners {
				_ = l.Close()
			}
			inj.listeners = nil
			return fmt.Errorf("inject: listen %s for %s: %w", addr, conn, err)
		}
		inj.listeners = append(inj.listeners, ln)
		conn := conn
		inj.wg.Add(1)
		go func() {
			defer inj.wg.Done()
			inj.acceptLoop(conn, ln)
		}()
	}
	for _, sh := range inj.shards {
		sh := sh
		inj.wg.Add(1)
		go func() {
			defer inj.wg.Done()
			sh.run()
		}()
	}
	inj.started = true
	return nil
}

// Stop closes all listeners and sessions and waits for the injector's
// goroutines to exit.
func (inj *Injector) Stop() {
	inj.mu.Lock()
	if !inj.started {
		inj.mu.Unlock()
		return
	}
	select {
	case <-inj.stop:
		inj.mu.Unlock()
		inj.wg.Wait()
		return
	default:
	}
	close(inj.stop)
	listeners := inj.listeners
	sessions := make([]*session, 0, len(inj.sessions))
	for _, s := range inj.sessions {
		sessions = append(sessions, s)
	}
	inj.mu.Unlock()
	for _, ln := range listeners {
		_ = ln.Close()
	}
	for _, s := range sessions {
		s.close()
	}
	inj.wg.Wait()
}

// acceptLoop serves successive switch connections for one control-plane
// connection.
func (inj *Injector) acceptLoop(conn model.Conn, ln net.Listener) {
	for {
		swConn, err := ln.Accept()
		if err != nil {
			return
		}
		sess, err := inj.openSession(conn, swConn)
		if err != nil {
			inj.log.Add(Event{
				At: inj.clk.Now(), Kind: EventError, Conn: conn,
				Detail: fmt.Sprintf("dial controller: %v", err),
			})
			_ = swConn.Close()
			continue
		}
		// Serve this session to completion before accepting the switch's
		// next reconnect (a switch has one control channel at a time).
		inj.serveSession(sess)
	}
}

// openSession dials the real controller and registers the session.
func (inj *Injector) openSession(conn model.Conn, swConn net.Conn) (*session, error) {
	ctrl, ok := inj.cfg.System.ControllerByID(conn.Controller)
	if !ok {
		return nil, fmt.Errorf("unknown controller %s", conn.Controller)
	}
	ctrlConn, err := inj.cfg.Transport.Dial(ctrl.ListenAddr)
	if err != nil {
		return nil, err
	}
	sess := newSession(conn, swConn, ctrlConn, inj.shardFor(conn))
	inj.bindSession(sess)
	inj.mu.Lock()
	inj.sessions[conn] = sess
	inj.mu.Unlock()
	inj.log.Add(Event{At: inj.clk.Now(), Kind: EventConn, Conn: conn, Detail: "session open"})
	inj.tele.Emit(telemetry.Event{
		Layer: telemetry.LayerInjector, Kind: telemetry.KindSession,
		Conn: connLabel(conn), Detail: "open",
	})
	return sess, nil
}

// readBufSize sizes the per-reader bufio layer: one locked ring/socket
// read pulls in a run of small frames instead of two per frame (header,
// body). Frames larger than the buffer degrade gracefully to direct reads.
const readBufSize = 4096

// serveSession reads both directions into the owning shard's intake queue
// until either side closes. The switch side is read on the calling accept
// goroutine and the controller side on one spawned reader, so a session
// costs two goroutines (a blocking Read must not stall other sessions);
// the write side has none at all: the shard loop flushes outbound frames
// in batches.
func (inj *Injector) serveSession(sess *session) {
	read := func(conn net.Conn, dir lang.Direction) {
		src := bufio.NewReaderSize(conn, readBufSize)
		sh := sess.sh
		for {
			// Each frame is read into a pooled buffer whose ownership moves
			// with the event: shard loop, then delivery, then the flush that
			// recycles it. ReadRawInto returns the buffer even on error so
			// it can be recycled here.
			raw, err := openflow.ReadRawInto(src, openflow.GetBuffer())
			if err != nil {
				openflow.PutBuffer(raw)
				sess.close()
				return
			}
			ev := eventPool.Get().(*event)
			*ev = event{kind: EventMessage, conn: sess.conn, dir: dir, raw: raw, sess: sess}
			// Push blocks while the shard's intake is full: backpressure
			// toward this reader.
			if !sh.loop.Push(ev) {
				openflow.PutBuffer(raw)
				ev.recycle()
				sess.close()
				return
			}
		}
	}
	ctrlDone := make(chan struct{})
	go func() {
		defer close(ctrlDone)
		read(sess.ctrlSide, lang.ControllerToSwitch)
	}()
	read(sess.switchSide, lang.SwitchToController)
	<-ctrlDone
	inj.finishSession(sess)
}

// finishSession deregisters a served session and records its close.
func (inj *Injector) finishSession(sess *session) {
	inj.mu.Lock()
	if inj.sessions[sess.conn] == sess {
		delete(inj.sessions, sess.conn)
	}
	inj.mu.Unlock()
	inj.log.Add(Event{At: inj.clk.Now(), Kind: EventConn, Conn: sess.conn, Detail: "session closed"})
	inj.tele.Emit(telemetry.Event{
		Layer: telemetry.LayerInjector, Kind: telemetry.KindSession,
		Conn: connLabel(sess.conn), Detail: "closed",
	})
}

// bindSession resolves the session's per-connection hot-path caches: the
// capability grant, telemetry counters, and log stats record, all of which
// are fixed for the connection's lifetime.
func (inj *Injector) bindSession(sess *session) {
	sess.caps = inj.cfg.Attacker.CapsFor(sess.conn)
	sess.ctrs = inj.countersFor(sess.conn)
	sess.stats = inj.log.StatsRef(sess.conn)
}

// sessionFor returns the live session for conn, if any.
func (inj *Injector) sessionFor(conn model.Conn) *session {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.sessions[conn]
}

// syscmdFor returns the registered SYSCMD runner for host.
func (inj *Injector) syscmdFor(host model.NodeID) func(string) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.syscmd[host]
}

// nextMsgID issues unique message ids.
func (inj *Injector) nextMsgID() uint64 { return inj.msgID.Add(1) }

// nextInjectXid issues xids for injected messages.
func (inj *Injector) nextInjectXid() uint32 { return inj.injectXid.Add(1) }

// proxiedConns returns the connections this instance proxies.
func (inj *Injector) proxiedConns() []model.Conn {
	if len(inj.cfg.Connections) > 0 {
		return inj.cfg.Connections
	}
	return inj.cfg.System.ControlPlane
}

// Barrier enqueues a no-op event on every shard and waits until each loop
// has drained and flushed everything enqueued before it — a test
// synchronization aid. Note that it does NOT order against frames still
// being read by the per-session reader goroutines: a message written to a
// proxied connection may be enqueued after a Barrier issued later. Callers
// needing to observe the effects of specific messages should poll on the
// observable effect.
func (inj *Injector) Barrier() {
	for _, sh := range inj.shards {
		done := make(chan struct{})
		if sh.enqueueBarrier(done) {
			<-done
		}
	}
}
