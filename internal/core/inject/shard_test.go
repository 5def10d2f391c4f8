package inject

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"attain/internal/clock"
	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/netem"
	"attain/internal/openflow"
	"attain/internal/telemetry"
)

// shardedHarness builds a harness over buffered conns with the given number
// of shard loops.
func shardedHarness(t *testing.T, attack *lang.Attack, caps model.CapabilitySet, shards int, tweak func(*Config)) *harness {
	t.Helper()
	return newHarnessTr(t, attack, caps, netem.NewBufferedMemTransport(0), func(cfg *Config) {
		cfg.Shards = shards
		if tweak != nil {
			tweak(cfg)
		}
	})
}

func TestShardedPassthroughAndStats(t *testing.T) {
	h := shardedHarness(t, trivialAttack(), model.AllCapabilities, 2, nil)
	h.sw.send(t, 1, &openflow.Hello{})
	if hd, _ := h.ctrl.expect(t); hd.Type != openflow.TypeHello {
		t.Errorf("controller got %s", hd.Type)
	}
	h.ctrl.send(t, 2, &openflow.EchoRequest{Data: []byte("x")})
	if hd, _ := h.sw.expect(t); hd.Type != openflow.TypeEchoRequest {
		t.Errorf("switch got %s", hd.Type)
	}
	// Xids preserved byte-for-byte through the batched flush.
	h.sw.send(t, 77, &openflow.BarrierRequest{})
	if hd, _ := h.ctrl.expect(t); hd.Xid != 77 {
		t.Errorf("xid = %d, want 77", hd.Xid)
	}
	h.inj.Barrier()
	st := h.inj.Log().Stats(h.conn)
	if st.Seen != 3 || st.Delivered != 3 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestShardedScopedDropAndCounters(t *testing.T) {
	// Drop everything on (c1,s1); (c1,s2) — possibly on another shard —
	// must be untouched, and per-conn stats must hold after Barrier.
	attack := oneRuleAttack(lang.True, model.AllCapabilities, lang.DropMessage{})
	h := shardedHarness(t, attack, model.AllCapabilities, 2, nil)
	sw2, ctrl2 := h.openSecondConn(t)

	h.sw.send(t, 1, &openflow.Hello{})
	h.ctrl.expectNone(t, 100*time.Millisecond)
	sw2.send(t, 2, &openflow.Hello{})
	if hd, _ := ctrl2.expect(t); hd.Type != openflow.TypeHello {
		t.Errorf("(c1,s2) controller got %s", hd.Type)
	}
	h.inj.Barrier()
	if st := h.inj.Log().Stats(h.conn); st.Dropped != 1 || st.Delivered != 0 {
		t.Errorf("(c1,s1) stats = %+v", st)
	}
	conn2 := model.Conn{Controller: "c1", Switch: "s2"}
	if st := h.inj.Log().Stats(conn2); st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("(c1,s2) stats = %+v", st)
	}
}

// TestShardAssignmentDeterministic pins reproducibility of placement: the
// same seed maps every connection to the same shard on every run, and the
// hash actually spreads connections.
func TestShardAssignmentDeterministic(t *testing.T) {
	attack := trivialAttack()
	mk := func(seed int64) *Injector {
		inj, _, _ := shardedLoopback(t, attack, func(cfg *Config) {
			cfg.Shards = 4
			cfg.StochasticSeed = seed
		})
		return inj
	}
	a, b := mk(42), mk(42)
	used := map[int]bool{}
	for _, c := range []string{"c1", "c2", "c3", "c4"} {
		for _, s := range []string{"s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"} {
			conn := model.Conn{Controller: model.NodeID(c), Switch: model.NodeID(s)}
			sa, sb := a.shardFor(conn), b.shardFor(conn)
			if sa.id != sb.id {
				t.Fatalf("conn %s: shard %d vs %d across same-seed injectors", conn, sa.id, sb.id)
			}
			used[sa.id] = true
		}
	}
	if len(used) < 2 {
		t.Errorf("32 conns all hashed to %d shard(s)", len(used))
	}
	// Shard 0 draws rand.NewSource(seed)'s sequence, as one loop does.
	if shardSeed(777, 0) != 777 {
		t.Error("shardSeed(seed, 0) must be the identity")
	}
	if shardSeed(777, 1) == 777 || shardSeed(777, 1) == shardSeed(777, 2) {
		t.Error("sibling shard seeds must differ")
	}
}

// deliveredStreams runs the fixed two-connection scenario behind
// testdata/delivered_streams.golden and returns, per connection and
// direction, the exact bytes the injector delivered.
//
// (c1,s2) carries 150 ECHO_REQUESTs under a seeded coin-flip drop; seed 42
// places it on shard 0 at every shard count, the shard that keeps the
// configured seed (see shardSeed), so its verdict sequence is the one the
// paper's single executor draws. (c1,s1) carries FLOW_MODs under a
// deterministic priority rewrite, interleaved with untouched echoes, and
// lands on shard 1 once there are several: its stream must not depend on
// which loop served it.
func deliveredStreams(t *testing.T, shards int) []byte {
	t.Helper()
	s1 := model.Conn{Controller: "c1", Switch: "s1"}
	s2 := model.Conn{Controller: "c1", Switch: "s2"}
	a := lang.NewAttack("stream-golden", "s0")
	a.AddState(&lang.State{
		Name: "s0",
		Rules: []*lang.Rule{{
			Name:    "coinflip",
			Conns:   []model.Conn{s2},
			Caps:    model.AllCapabilities,
			Cond:    isType("ECHO_REQUEST"),
			Prob:    0.5,
			Actions: []lang.Action{lang.DropMessage{}},
		}, {
			Name:    "reprio",
			Conns:   []model.Conn{s1},
			Caps:    model.AllCapabilities,
			Cond:    isType("FLOW_MOD"),
			Actions: []lang.Action{lang.ModifyField{Field: lang.PropFMPriority, Value: lang.Lit{Value: int64(9)}}},
		}},
	})
	h := newHarnessTr(t, a, model.AllCapabilities, netem.NewBufferedMemTransport(0), func(cfg *Config) {
		cfg.Shards = shards
		cfg.StochasticSeed = 42
	})
	sw2, ctrl2 := h.openSecondConn(t)

	const echoes, mods = 150, 40
	for i := 0; i < echoes; i++ {
		sw2.send(t, uint32(i+1), &openflow.EchoRequest{})
	}
	for i := 0; i < mods; i++ {
		h.ctrl.send(t, uint32(1000+i), &openflow.FlowMod{
			Match: openflow.MatchAll(), Priority: uint16(100 + i),
			BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		})
		h.ctrl.send(t, uint32(2000+i), &openflow.EchoRequest{Data: []byte{byte(i)}})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) &&
		(h.inj.Log().Stats(s2).Seen < echoes || h.inj.Log().Stats(s1).Seen < 2*mods) {
		time.Sleep(2 * time.Millisecond)
	}
	h.inj.Barrier()
	st := h.inj.Log().Stats(s2)
	if st.Seen != echoes || h.inj.Log().Stats(s1).Seen != 2*mods {
		t.Fatalf("shards=%d: seen %d and %d, want %d and %d",
			shards, st.Seen, h.inj.Log().Stats(s1).Seen, echoes, 2*mods)
	}
	if st.Dropped == 0 || st.Dropped == echoes {
		t.Fatalf("shards=%d: dropped = %d, want a strict subset", shards, st.Dropped)
	}
	collect := func(p *fakePeer, frames int) string {
		var stream []byte
		for i := 0; i < frames; i++ {
			select {
			case raw, ok := <-p.got:
				if !ok {
					t.Fatalf("shards=%d: peer closed after %d of %d frames", shards, i, frames)
				}
				stream = append(stream, raw...)
			case <-time.After(5 * time.Second):
				t.Fatalf("shards=%d: got %d of %d frames", shards, i, frames)
			}
		}
		return hex.EncodeToString(stream)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "%s %s %s\n", s1, lang.ControllerToSwitch, collect(h.sw, 2*mods))
	fmt.Fprintf(&out, "%s %s %s\n", s2, lang.SwitchToController, collect(ctrl2, echoes-int(st.Dropped)))
	return out.Bytes()
}

// TestShardedDeterminismMatchesPumpPath pins what the deleted pump core
// delivered: testdata/delivered_streams.golden was recorded from the
// goroutine-per-session path (Shards=0 at the commit before its removal),
// and every shard count must put the same bytes on every connection.
func TestShardedDeterminismMatchesPumpPath(t *testing.T) {
	golden := filepath.Join("testdata", "delivered_streams.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		if got := deliveredStreams(t, shards); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: delivered streams differ from %s:\ngot:\n%s\nwant:\n%s", shards, golden, got, want)
		}
	}
}

// TestShardedConcurrentSessions hammers two proxied connections from both
// directions through the sharded core — the race-detector stress for the
// intake queue, cross-session flushes, and pooled buffer recycling.
func TestShardedConcurrentSessions(t *testing.T) {
	attack := oneRuleAttack(isType("PACKET_IN"), model.AllCapabilities, lang.DuplicateMessage{})
	h := shardedHarness(t, attack, model.AllCapabilities, 2, nil)
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
	// PACKET_INs on (c1,s1) are duplicated: 2n frames at the controller.
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

// TestShardedBatchZeroAlloc pins the sharded steady state at zero heap
// allocations per message: enqueue, batch drain, rule evaluation against
// the lazy frame view, and the coalesced flush all run on pooled or
// shard-persistent memory.
func TestShardedBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode makes sync.Pool (event recycling) drop items at random")
	}
	attack := oneRuleAttack(isType("PACKET_IN"), model.AllCapabilities, lang.DropMessage{})
	_, sh, sess := shardedLoopback(t, attack, nil)
	wire, err := openflow.Marshal(7, &openflow.FlowMod{
		Match: openflow.MatchAll(), BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		for i := 0; i < 16; i++ {
			push(t, sh, sess, lang.SwitchToController, append(openflow.GetBuffer(), wire...))
		}
		sh.loop.RunOnce(sh.inj.stop)
	}
	step() // warm up stats maps, pools, and pending-list capacity
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Fatalf("sharded batch path allocates: %v allocs/op", allocs)
	}
}

// TestShutdownRecyclesQueuedFrames pins the loop's shutdown hygiene: frames
// still queued for delivery (write events in the intake) or pending a
// flush when the loop exits are returned to the buffer pool and surface in
// the drop counters instead of leaking silently.
func TestShutdownRecyclesQueuedFrames(t *testing.T) {
	tele := telemetry.New(telemetry.Options{})
	inj, sh, sess := shardedLoopback(t, trivialAttack(), func(cfg *Config) { cfg.Telemetry = tele })
	frame := func() []byte { return append(openflow.GetBuffer(), make([]byte, 16)...) }
	// Three frames wait in the intake behind the loop, two more sit on the
	// session's pending lists, one per direction.
	for i := 0; i < 3; i++ {
		if err := sh.enqueueWrite(sess, lang.SwitchToController, frame()); err != nil {
			t.Fatal(err)
		}
	}
	sh.queueLocal(sess, lang.SwitchToController, frame())
	sh.queueLocal(sess, lang.ControllerToSwitch, frame())

	sh.drainShutdown()

	if n := sh.loop.Len(); n != 0 || !sh.loop.Stopped() {
		t.Errorf("intake after shutdown: len=%d stopped=%v", n, sh.loop.Stopped())
	}
	if sh.loop.Touched() != 0 || sess.toCtrl.Len() != 0 || sess.toSwitch.Len() != 0 {
		t.Errorf("pending after shutdown: touched=%d ctrl=%d switch=%d",
			sh.loop.Touched(), sess.toCtrl.Len(), sess.toSwitch.Len())
	}
	if got := inj.Log().Stats(sess.conn).Dropped; got != 5 {
		t.Errorf("Stats.Dropped = %d, want 5", got)
	}
	if got := inj.Log().Stats(sess.conn).Delivered; got != 0 {
		t.Errorf("Stats.Delivered = %d, want 0", got)
	}
	if got := tele.Registry().Snapshot()["injector.c1:s1.dropped"]; got != 5 {
		t.Errorf("injector.c1:s1.dropped = %d, want 5", got)
	}
	// A stopped shard refuses further writes; the caller keeps the buffer.
	late := frame()
	if err := sh.enqueueWrite(sess, lang.SwitchToController, late); err == nil {
		t.Error("enqueueWrite succeeded after shutdown")
	}
	openflow.PutBuffer(late)
}

// BenchmarkInjectorShardedBatch measures the sharded core's per-message
// cost: enqueue into the intake queue, batch drain through the executor,
// and the coalesced flush, in Batch-sized chunks as the loop runs them.
func BenchmarkInjectorShardedBatch(b *testing.B) {
	attack := oneRuleAttack(isType("PACKET_IN"), model.AllCapabilities, lang.DropMessage{})
	_, sh, sess := shardedLoopback(b, attack, nil)
	wire := benchWire(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	const chunk = 256
	for done := 0; done < b.N; {
		n := chunk
		if b.N-done < n {
			n = b.N - done
		}
		for j := 0; j < n; j++ {
			push(b, sh, sess, lang.SwitchToController, append(openflow.GetBuffer(), wire...))
		}
		sh.loop.RunOnce(sh.inj.stop)
		done += n
	}
}

// TestBlockingSleepDeliversEarlierMessagesFirst pins Algorithm 1's
// per-message delivery inside a batch: when message B of a chunk blocks the
// loop (DELAYMESSAGE or SLEEP), message A before it is already on the wire
// while the loop sleeps, and message C after it is stamped with the time
// after the sleep, not the chunk's stale first reading.
func TestBlockingSleepDeliversEarlierMessagesFirst(t *testing.T) {
	const d = 100 * time.Millisecond
	for name, act := range map[string]lang.Action{
		"delay": lang.DelayMessage{D: d},
		"sleep": lang.Sleep{D: d},
	} {
		t.Run(name, func(t *testing.T) {
			start := time.Unix(1000, 0)
			mock := clock.NewMock(start)
			attack := oneRuleAttack(isType("BARRIER_REQUEST"), model.AllCapabilities, act)
			inj, sh, sess := shardedLoopback(t, attack, func(cfg *Config) {
				cfg.Clock = mock
				cfg.LeanLog = false
			})
			ctrl := &captureConn{}
			sess.toCtrl.W = ctrl

			msgs := []openflow.Message{&openflow.EchoRequest{}, &openflow.BarrierRequest{}, &openflow.EchoReply{}}
			for i, msg := range msgs {
				raw, err := openflow.AppendMessage(openflow.GetBuffer(), uint32(i+1), msg)
				if err != nil {
					t.Fatal(err)
				}
				push(t, sh, sess, lang.SwitchToController, raw)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				sh.loop.RunOnce(sh.inj.stop)
			}()

			deadline := time.Now().Add(5 * time.Second)
			for mock.Waiters() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("loop never blocked on the clock")
				}
				time.Sleep(time.Millisecond)
			}
			// The loop is asleep on B and the clock has not moved: A must
			// already have been written, and nothing after it.
			if hd, _, err := openflow.Unmarshal(ctrl.next(t)); err != nil || hd.Xid != 1 {
				t.Fatalf("first frame on the wire: xid=%d err=%v, want A (xid 1)", hd.Xid, err)
			}
			if n := ctrl.pending(); n != 0 {
				t.Fatalf("%d more bytes on the wire while the loop sleeps on B", n)
			}
			if got := inj.Log().Stats(sess.conn); got.Seen < 1 || got.Delivered != 1 {
				t.Fatalf("stats while asleep = %+v, want A seen and delivered", got)
			}

			mock.Advance(d)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("loop never woke")
			}
			for _, want := range []uint32{2, 3} {
				if hd, _, err := openflow.Unmarshal(ctrl.next(t)); err != nil || hd.Xid != want {
					t.Fatalf("after the sleep: xid=%d err=%v, want %d", hd.Xid, err, want)
				}
			}
			var stamps []time.Time
			for _, e := range inj.Log().Events(EventMessage) {
				stamps = append(stamps, e.At)
			}
			want := []time.Time{start, start, start.Add(d)}
			if len(stamps) != len(want) {
				t.Fatalf("logged %d message events, want %d", len(stamps), len(want))
			}
			for i := range want {
				if !stamps[i].Equal(want[i]) {
					t.Errorf("message %d stamped %v, want %v", i+1, stamps[i], want[i])
				}
			}
		})
	}
}

// waitGoroutines polls until the process is back to at most want
// goroutines; exits lag the calls that cause them.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// switchesSystem is Figure 3's controller c1 with n one-port switches,
// each on its own control channel.
func switchesSystem(n int) *model.System {
	sys := model.Figure3System()
	sys.Switches = sys.Switches[:0]
	sys.ControlPlane = sys.ControlPlane[:0]
	for i := 0; i < n; i++ {
		id := model.NodeID(fmt.Sprintf("s%d", i+1))
		sys.Switches = append(sys.Switches, model.Switch{ID: id, DPID: uint64(i + 1), Ports: []uint16{1}})
		sys.ControlPlane = append(sys.ControlPlane, model.Conn{Controller: "c1", Switch: id})
	}
	return sys
}

// sessionGoroutines counts the goroutines serving proxied sessions: the
// accept loops and every goroutine a session spawned.
func sessionGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("(*Injector).acceptLoop")) || bytes.Contains(g, []byte("(*Injector).serveSession")) {
			count++
		}
	}
	return count
}

// TestSessionGoroutines pins a proxied session's goroutine cost at two:
// its connection's accept loop, which reads the switch side, plus one
// controller-side reader.
func TestSessionGoroutines(t *testing.T) {
	const sessions = 32
	sys := switchesSystem(sessions)
	tr := netem.NewBufferedMemTransport(0)
	inj, err := New(Config{System: sys, Attack: trivialAttack(), Transport: tr, Shards: 2, LeanLog: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tr.Listen("c1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var ctrlConns []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			ctrlConns = append(ctrlConns, c)
		}
	}()
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()

	var swConns []net.Conn
	for _, conn := range sys.ControlPlane {
		c, err := tr.Dial(inj.ProxyAddrFor(conn))
		if err != nil {
			t.Fatal(err)
		}
		swConns = append(swConns, c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		inj.mu.Lock()
		open := len(inj.sessions)
		inj.mu.Unlock()
		if open == sessions && sessionGoroutines() >= 2*sessions {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sessions open on %d goroutines", open, sessions, sessionGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let any further spawns land
	if n := sessionGoroutines(); n != 2*sessions {
		t.Fatalf("%d sessions run on %d goroutines, want %d", sessions, n, 2*sessions)
	}

	for _, c := range swConns {
		_ = c.Close()
	}
	inj.Stop()
	_ = ln.Close()
	<-accepted
	for _, c := range ctrlConns {
		_ = c.Close()
	}
}

// TestStopLeavesNothingBehind stops an injector under load: 64 sessions
// pushing traffic both ways when Stop lands. Afterwards every goroutine the
// injector started is gone, no loop still holds a pooled buffer (intake and
// pending lists empty), and every frame a loop processed was either
// delivered or counted as dropped.
func TestStopLeavesNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	const sessions = 64
	sys := switchesSystem(sessions)
	tr := netem.NewBufferedMemTransport(0)
	inj, err := New(Config{
		System: sys, Attack: trivialAttack(), Transport: tr,
		Shards: 4, LeanLog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tr.Listen("c1")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := openflow.Marshal(1, &openflow.EchoRequest{Data: []byte("load")})
	if err != nil {
		t.Fatal(err)
	}
	// Each peer writes a paced stream until its conn dies (unpaced, 128
	// writers starve one another's sessions of intake slots) and reads and
	// discards whatever the other side sends.
	var peers sync.WaitGroup
	peer := func(c net.Conn) {
		peers.Add(2)
		go func() {
			defer peers.Done()
			_, _ = io.Copy(io.Discard, c)
		}()
		go func() {
			defer peers.Done()
			defer c.Close()
			for {
				if _, err := c.Write(wire); err != nil {
					return
				}
				time.Sleep(20 * time.Microsecond)
			}
		}()
	}
	peers.Add(1)
	go func() {
		defer peers.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			peer(c)
		}
	}()
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	for _, conn := range sys.ControlPlane {
		c, err := tr.Dial(inj.ProxyAddrFor(conn))
		if err != nil {
			t.Fatal(err)
		}
		peer(c)
	}

	// Stop lands once every session has traffic behind it.
	busy := func() (n int) {
		for _, conn := range sys.ControlPlane {
			if inj.Log().Stats(conn).Seen >= 100 {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	for busy() < sessions {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d sessions carried traffic", busy(), sessions)
		}
		time.Sleep(time.Millisecond)
	}
	inj.mu.Lock()
	live := make([]*session, 0, len(inj.sessions))
	for _, s := range inj.sessions {
		live = append(live, s)
	}
	inj.mu.Unlock()
	if len(live) != sessions {
		t.Fatalf("%d live sessions, want %d", len(live), sessions)
	}

	inj.Stop()
	_ = ln.Close()
	peers.Wait()
	waitGoroutines(t, before)

	for _, sh := range inj.shards {
		if n := sh.loop.Len(); n != 0 || !sh.loop.Stopped() || sh.loop.Touched() != 0 {
			t.Errorf("shard %d after Stop: intake=%d stopped=%v touched=%d", sh.id, n, sh.loop.Stopped(), sh.loop.Touched())
		}
	}
	for _, s := range live {
		if s.toCtrl.Len() != 0 || s.toSwitch.Len() != 0 {
			t.Errorf("%s after Stop: %d+%d frames still pending", s.conn, s.toCtrl.Len(), s.toSwitch.Len())
		}
		if st := inj.Log().Stats(s.conn); st.Seen == 0 || st.Seen != st.Delivered+st.Dropped {
			t.Errorf("%s after Stop: seen %d != delivered %d + dropped %d", s.conn, st.Seen, st.Delivered, st.Dropped)
		}
	}
}
