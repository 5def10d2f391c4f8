package inject

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/netem"
	"attain/internal/openflow"
	"attain/internal/telemetry"
)

// shardedLoopback builds a one-loop injector (not started) plus a session
// bound to its shard over discard conns, for driving the shard loop inline
// — no goroutines, so buffer ownership and allocation behavior are
// deterministic. Tests that read what was delivered swap in a captureConn.
func shardedLoopback(t testing.TB, attack *lang.Attack, tweak func(*Config)) (*Injector, *shard, *session) {
	sys := model.Figure3System()
	conn := model.Conn{Controller: "c1", Switch: "s1"}
	am := model.NewAttackerModel()
	am.Grant(conn, model.AllCapabilities)
	cfg := Config{
		System: sys, Attacker: am, Attack: attack,
		Transport: netem.NewMemTransport(), LeanLog: true,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := inj.shards[0]
	sess := newSession(conn, discardConn{}, discardConn{}, sh)
	inj.bindSession(sess)
	return inj, sh, sess
}

// discardConn swallows writes; reads report EOF. It stands in for a peer
// in benchmarks and alloc tests where only the write side matters.
type discardConn struct{}

func (discardConn) Read(p []byte) (int, error)  { return 0, io.EOF }
func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }
func (discardConn) LocalAddr() net.Addr         { return nil }
func (discardConn) RemoteAddr() net.Addr        { return nil }
func (discardConn) SetDeadline(time.Time) error { return nil }
func (c discardConn) SetReadDeadline(time.Time) error {
	return nil
}
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// captureConn is a discardConn that keeps the bytes written to it.
type captureConn struct {
	discardConn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

// pending reports how many delivered bytes next has not consumed.
func (c *captureConn) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Len()
}

// next pops one delivered frame.
func (c *captureConn) next(t testing.TB) []byte {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, err := openflow.ReadRaw(&c.buf)
	if err != nil {
		t.Fatalf("no delivered frame: %v", err)
	}
	return raw
}

// push puts one message event on the shard's intake, as a session reader
// would. raw is a pooled buffer whose ownership passes to the loop.
func push(t testing.TB, sh *shard, sess *session, dir lang.Direction, raw []byte) {
	ev := eventPool.Get().(*event)
	*ev = event{kind: EventMessage, conn: sess.conn, dir: dir, raw: raw, sess: sess}
	if !sh.enqueue(ev) {
		t.Fatal("shard refused event")
	}
}

// loop pushes one message and runs one loop iteration inline.
func loop(t testing.TB, sh *shard, sess *session, dir lang.Direction, raw []byte) {
	push(t, sh, sess, dir, raw)
	sh.drainBatch(sh.waitWork())
}

// TestPassthroughZeroAlloc pins the tentpole invariant: with lean logging
// and telemetry disabled, proxying a message that no rule rewrites performs
// zero heap allocations — no decode, no event, no buffer churn — even while
// a non-matching payload rule is evaluated against the lazy frame view.
func TestPassthroughZeroAlloc(t *testing.T) {
	attack := oneRuleAttack(isType("PACKET_IN"), model.AllCapabilities, lang.DropMessage{})
	inj, sh, sess := shardedLoopback(t, attack, nil)
	wire, err := openflow.Marshal(7, &openflow.FlowMod{
		Match: openflow.MatchAll(), BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func() { loop(t, sh, sess, lang.SwitchToController, append(openflow.GetBuffer(), wire...)) }
	step() // warm up stats maps, pools, and pending-list capacity
	// Race mode makes sync.Pool (event recycling) drop items at random, so
	// only the counters are checked there.
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 && !raceEnabled {
		t.Fatalf("passthrough allocates: %v allocs/op", allocs)
	}
	st := inj.Log().Stats(sess.conn)
	if st.Seen == 0 || st.Seen != st.Delivered {
		t.Fatalf("stats = %+v", st)
	}
	if got := inj.Log().MessageTypeCounts()["FLOW_MOD"]; got != st.Seen {
		t.Fatalf("lean log counted %d FLOW_MODs, seen %d", got, st.Seen)
	}
}

// TestForwardedFramesPreserveXidBytes pins the forwarding invariant: a
// frame that rules observe but do not rewrite is delivered byte-for-byte,
// xid included, even when a rule fires on it. Injected messages draw their
// xids from the dedicated injection counter instead of renumbering through
// the shared message-id sequence.
func TestForwardedFramesPreserveXidBytes(t *testing.T) {
	// The rule fires on every barrier request, stores a copy, and injects
	// an ECHO_REQUEST alongside — actions that must not disturb the
	// original bytes.
	attack := oneRuleAttack(isType("BARRIER_REQUEST"), model.AllCapabilities,
		lang.StoreMessage{Deque: "d"},
		lang.InjectMessage{Template: "echo_request", Direction: lang.SwitchToController},
	)
	inj, sh, sess := shardedLoopback(t, attack, nil)
	ctrl := &captureConn{}
	sess.ctrlSide = ctrl

	const xid = 0xCAFEBABE
	wire, err := openflow.Marshal(xid, &openflow.BarrierRequest{})
	if err != nil {
		t.Fatal(err)
	}
	// Burn a few message ids first so the old renumbering behavior (xid
	// drawn from the shared message-id counter) would be observable.
	for i := 0; i < 5; i++ {
		inj.nextMsgID()
	}
	raw := append(openflow.GetBuffer(), wire...)
	inflight := &raw[0]
	loop(t, sh, sess, lang.SwitchToController, raw)

	fwd := ctrl.next(t)
	if !bytes.Equal(fwd, wire) {
		t.Fatalf("forwarded frame not byte-identical:\n got %x\nwant %x", fwd, wire)
	}
	injected := ctrl.next(t)
	ihdr, imsg, err := openflow.Unmarshal(injected)
	if err != nil {
		t.Fatal(err)
	}
	if imsg.Type() != openflow.TypeEchoRequest {
		t.Fatalf("injected type = %s", imsg.Type())
	}
	if ihdr.Xid != 1 {
		t.Fatalf("first injected xid = %d, want 1 (dedicated counter)", ihdr.Xid)
	}

	// The stored copy must not alias the original buffer, which the flush
	// has recycled.
	v, err := inj.Storage().Deque("d").Pop()
	if err != nil {
		t.Fatal(err)
	}
	stored := v.(*lang.Captured)
	if !bytes.Equal(stored.Raw, wire) {
		t.Fatalf("captured bytes corrupted: %x", stored.Raw)
	}
	if &stored.Raw[0] == inflight {
		t.Fatal("captured message aliases the in-flight buffer")
	}
	if f, ok := stored.View.Frame(); !ok || f.Xid() != xid {
		t.Fatalf("captured view frame: ok=%v", ok)
	}

	// A second injection continues the dedicated sequence.
	loop(t, sh, sess, lang.SwitchToController, append(openflow.GetBuffer(), wire...))
	ctrl.next(t)
	ihdr2, _, err := openflow.Unmarshal(ctrl.next(t))
	if err != nil {
		t.Fatal(err)
	}
	if ihdr2.Xid != 2 {
		t.Fatalf("second injected xid = %d, want 2", ihdr2.Xid)
	}
}

// TestPassthroughMaterializedCounters pins the telemetry split: messages a
// rule rewrites count as materialized, everything else as passthrough.
func TestPassthroughMaterializedCounters(t *testing.T) {
	attack := oneRuleAttack(isType("FLOW_MOD"), model.AllCapabilities,
		lang.ModifyField{Field: lang.PropFMPriority, Value: lang.Lit{Value: int64(9)}})
	tele := telemetry.New(telemetry.Options{})
	h := newHarnessCfg(t, attack, model.AllCapabilities, func(cfg *Config) { cfg.Telemetry = tele })

	fm := &openflow.FlowMod{Match: openflow.MatchAll(), BufferID: openflow.NoBuffer, OutPort: openflow.PortNone}
	h.ctrl.send(t, 1, fm)
	h.sw.expect(t)
	h.ctrl.send(t, 2, &openflow.EchoRequest{})
	h.sw.expect(t)
	h.inj.Barrier()

	reg := tele.Registry().Snapshot()
	if got := reg["injector.c1:s1.materialized"]; got != 1 {
		t.Errorf("materialized = %d, want 1 (snapshot %v)", got, reg)
	}
	if got := reg["injector.c1:s1.passthrough"]; got != 1 {
		t.Errorf("passthrough = %d, want 1 (snapshot %v)", got, reg)
	}
}

// TestConcurrentSessionsPooledPath hammers two proxied connections from
// both directions at once over the synchronous in-memory transport,
// exercising the pooled read buffers, pooled events, and flush recycling
// under the race detector (make race).
func TestConcurrentSessionsPooledPath(t *testing.T) {
	attack := oneRuleAttack(isType("PACKET_IN"), model.AllCapabilities, lang.DuplicateMessage{})
	h := newHarness(t, attack, model.AllCapabilities)
	sw2, ctrl2 := h.openSecondConn(t)

	const n = 200
	var wg sync.WaitGroup
	send := func(p *fakePeer, mk func(i int) openflow.Message) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			p.send(t, uint32(i+1), mk(i))
		}
	}
	wg.Add(4)
	go send(h.sw, func(i int) openflow.Message {
		return &openflow.PacketIn{BufferID: uint32(i), InPort: 1, Reason: openflow.PacketInReasonNoMatch}
	})
	go send(h.ctrl, func(i int) openflow.Message { return &openflow.EchoRequest{} })
	go send(sw2, func(i int) openflow.Message { return &openflow.EchoReply{} })
	go send(ctrl2, func(i int) openflow.Message {
		return &openflow.FlowMod{Match: openflow.MatchAll(), BufferID: openflow.NoBuffer, OutPort: openflow.PortNone}
	})
	wg.Wait()

	// PACKET_INs on (c1,s1) are duplicated: 2n frames at the controller.
	recv := func(p *fakePeer, want int) int {
		got := 0
		for got < want {
			select {
			case _, ok := <-p.got:
				if !ok {
					t.Fatal("peer closed early")
				}
				got++
			case <-time.After(5 * time.Second):
				return got
			}
		}
		return got
	}
	if got := recv(h.ctrl, 2*n); got != 2*n {
		t.Errorf("ctrl got %d frames, want %d", got, 2*n)
	}
	if got := recv(h.sw, n); got != n {
		t.Errorf("sw got %d frames, want %d", got, n)
	}
	if got := recv(ctrl2, n); got != n {
		t.Errorf("ctrl2 got %d frames, want %d", got, n)
	}
	if got := recv(sw2, n); got != n {
		t.Errorf("sw2 got %d frames, want %d", got, n)
	}
}
