package inject

import (
	"bytes"
	"net"
	"testing"
	"time"

	"attain/internal/clock"
	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/netem"
	"attain/internal/openflow"
)

// fakePeer is a test endpoint (pretend controller or switch) that records
// every frame it receives.
type fakePeer struct {
	conn net.Conn
	got  chan []byte
}

func newFakePeer(conn net.Conn) *fakePeer {
	p := &fakePeer{conn: conn, got: make(chan []byte, 256)}
	go func() {
		for {
			raw, err := openflow.ReadRaw(conn)
			if err != nil {
				close(p.got)
				return
			}
			p.got <- raw
		}
	}()
	return p
}

func (p *fakePeer) send(t *testing.T, xid uint32, msg openflow.Message) {
	t.Helper()
	if err := openflow.WriteMessage(p.conn, xid, msg); err != nil {
		t.Fatalf("peer send: %v", err)
	}
}

// expect waits for one frame and decodes it.
func (p *fakePeer) expect(t *testing.T) (openflow.Header, openflow.Message) {
	t.Helper()
	select {
	case raw, ok := <-p.got:
		if !ok {
			t.Fatal("peer connection closed")
		}
		h, m, err := openflow.Unmarshal(raw)
		if err != nil {
			t.Fatalf("peer decode: %v", err)
		}
		return h, m
	case <-time.After(2 * time.Second):
		t.Fatal("peer timed out waiting for frame")
		return openflow.Header{}, nil
	}
}

// expectNone asserts no frame arrives within d.
func (p *fakePeer) expectNone(t *testing.T, d time.Duration) {
	t.Helper()
	select {
	case raw, ok := <-p.got:
		if ok {
			h, _, _ := openflow.Unmarshal(raw)
			t.Fatalf("unexpected frame %s", h.Type)
		}
	case <-time.After(d):
	}
}

// harness wires a fake controller and a fake switch through an injector
// over the (c1,s1) connection of the Figure 3 system.
type harness struct {
	inj      *Injector
	ctrl     *fakePeer // controller side (receives s2c traffic)
	sw       *fakePeer // switch side (receives c2s traffic)
	conn     model.Conn
	tr       *netem.MemTransport
	acceptCh chan net.Conn
}

func newHarness(t *testing.T, attack *lang.Attack, caps model.CapabilitySet) *harness {
	t.Helper()
	return newHarnessCfg(t, attack, caps, nil)
}

// openSecondConn attaches a fake switch and controller pair over (c1,s2).
func (h *harness) openSecondConn(t *testing.T) (sw2, ctrl2 *fakePeer) {
	t.Helper()
	conn2 := model.Conn{Controller: "c1", Switch: "s2"}
	swConn, err := h.tr.Dial(h.inj.ProxyAddrFor(conn2))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-h.acceptCh:
		return newFakePeer(swConn), newFakePeer(c)
	case <-time.After(2 * time.Second):
		t.Fatal("proxy never dialed the controller for (c1,s2)")
		return nil, nil
	}
}

func trivialAttack() *lang.Attack {
	a := lang.NewAttack("trivial", "s0")
	a.AddState(&lang.State{Name: "s0"})
	return a
}

func oneRuleAttack(cond lang.Expr, caps model.CapabilitySet, actions ...lang.Action) *lang.Attack {
	a := lang.NewAttack("one-rule", "s0")
	a.AddState(&lang.State{
		Name: "s0",
		Rules: []*lang.Rule{{
			Name:    "r1",
			Conns:   []model.Conn{{Controller: "c1", Switch: "s1"}},
			Caps:    caps,
			Cond:    cond,
			Actions: actions,
		}},
	})
	return a
}

func isType(name string) lang.Expr {
	return lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropType}, R: lang.Lit{Value: name}}
}

func TestTrivialAttackPassesEverything(t *testing.T) {
	h := newHarness(t, trivialAttack(), model.AllCapabilities)

	h.sw.send(t, 1, &openflow.Hello{})
	if hd, _ := h.ctrl.expect(t); hd.Type != openflow.TypeHello {
		t.Errorf("controller got %s", hd.Type)
	}
	h.ctrl.send(t, 2, &openflow.EchoRequest{Data: []byte("x")})
	if hd, _ := h.sw.expect(t); hd.Type != openflow.TypeEchoRequest {
		t.Errorf("switch got %s", hd.Type)
	}
	// Xids preserved through the proxy.
	h.sw.send(t, 77, &openflow.BarrierRequest{})
	if hd, _ := h.ctrl.expect(t); hd.Xid != 77 {
		t.Errorf("xid = %d, want 77", hd.Xid)
	}
	st := h.inj.Log().Stats(h.conn)
	if st.Seen != 3 || st.Delivered != 3 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDropFlowMods(t *testing.T) {
	attack := oneRuleAttack(isType("FLOW_MOD"), model.AllCapabilities, lang.DropMessage{})
	h := newHarness(t, attack, model.AllCapabilities)

	fm := &openflow.FlowMod{Match: openflow.MatchAll(), BufferID: openflow.NoBuffer, OutPort: openflow.PortNone}
	h.ctrl.send(t, 1, fm)
	h.ctrl.send(t, 2, &openflow.EchoRequest{})
	// Only the echo arrives: the flow mod was suppressed.
	if hd, _ := h.sw.expect(t); hd.Type != openflow.TypeEchoRequest {
		t.Errorf("switch got %s, want ECHO_REQUEST only", hd.Type)
	}
	h.inj.Barrier()
	st := h.inj.Log().Stats(h.conn)
	if st.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", st.Dropped)
	}
	if fires := st.RuleFires; fires != 1 {
		t.Errorf("rule fires = %d, want 1", fires)
	}
}

func TestTLSAttackerCannotSeePayload(t *testing.T) {
	// Conditional reads msg.type, requiring READMESSAGE; with only TLS
	// capabilities granted the attack cannot even be validated. Per the
	// paper the practitioner must scope the attack to metadata; verify
	// that an equivalent metadata-only attack passes FLOW_MODs through
	// because the payload is opaque.
	metaCond := lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropType}, R: lang.Lit{Value: "FLOW_MOD"}}
	attack := oneRuleAttack(metaCond, model.AllCapabilities, lang.DropMessage{})

	// Validation under TLS grants must fail (γ ⊄ granted).
	sys := model.Figure3System()
	am := model.NewAttackerModel()
	am.Grant(model.Conn{Controller: "c1", Switch: "s1"}, model.TLSCapabilities)
	if err := attack.Validate(sys, am); err == nil {
		t.Fatal("payload-reading attack validated under Γ_TLS")
	}

	// A metadata-only drop rule (drop everything from s1) works under a
	// TLS grant.
	dropAll := oneRuleAttack(
		lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropSource}, R: lang.Lit{Value: "s1"}},
		model.TLSCapabilities,
		lang.DropMessage{})
	h := newHarness(t, dropAll, model.TLSCapabilities)
	h.sw.send(t, 1, &openflow.Hello{})
	h.ctrl.expectNone(t, 100*time.Millisecond)
	// Reverse direction unaffected.
	h.ctrl.send(t, 2, &openflow.Hello{})
	if hd, _ := h.sw.expect(t); hd.Type != openflow.TypeHello {
		t.Errorf("switch got %s", hd.Type)
	}
	// Under TLS the payload is opaque: the log records OPAQUE types.
	h.inj.Barrier()
	counts := h.inj.Log().MessageTypeCounts()
	if counts["OPAQUE"] != 2 {
		t.Errorf("opaque count = %v", counts)
	}
}

func TestStateTransition(t *testing.T) {
	a := lang.NewAttack("two-state", "s0")
	conn := model.Conn{Controller: "c1", Switch: "s1"}
	a.AddState(&lang.State{
		Name: "s0",
		Rules: []*lang.Rule{{
			Name: "toS1", Conns: []model.Conn{conn}, Caps: model.AllCapabilities,
			Cond:    isType("HELLO"),
			Actions: []lang.Action{lang.PassMessage{}, lang.GotoState{State: "s1"}},
		}},
	})
	a.AddState(&lang.State{
		Name: "s1",
		Rules: []*lang.Rule{{
			Name: "dropAll", Conns: []model.Conn{conn}, Caps: model.AllCapabilities,
			Cond:    lang.True,
			Actions: []lang.Action{lang.DropMessage{}},
		}},
	})
	h := newHarness(t, a, model.AllCapabilities)

	if got := h.inj.CurrentState(); got != "s0" {
		t.Fatalf("initial state = %s", got)
	}
	// HELLO passes and transitions.
	h.sw.send(t, 1, &openflow.Hello{})
	if hd, _ := h.ctrl.expect(t); hd.Type != openflow.TypeHello {
		t.Fatalf("controller got %s", hd.Type)
	}
	h.inj.Barrier()
	if got := h.inj.CurrentState(); got != "s1" {
		t.Fatalf("state after HELLO = %s", got)
	}
	// Everything afterwards is dropped.
	h.sw.send(t, 2, &openflow.EchoRequest{})
	h.ctrl.expectNone(t, 100*time.Millisecond)
}

func TestDuplicateMessage(t *testing.T) {
	attack := oneRuleAttack(isType("ECHO_REQUEST"), model.AllCapabilities, lang.DuplicateMessage{})
	h := newHarness(t, attack, model.AllCapabilities)
	h.sw.send(t, 5, &openflow.EchoRequest{Data: []byte("dup")})
	h1, m1 := h.ctrl.expect(t)
	h2, m2 := h.ctrl.expect(t)
	if h1.Type != openflow.TypeEchoRequest || h2.Type != openflow.TypeEchoRequest {
		t.Fatalf("types = %s, %s", h1.Type, h2.Type)
	}
	if !bytes.Equal(m1.(*openflow.EchoRequest).Data, m2.(*openflow.EchoRequest).Data) {
		t.Error("duplicate payload differs")
	}
}

func TestDelayMessage(t *testing.T) {
	const d = 150 * time.Millisecond
	attack := oneRuleAttack(isType("ECHO_REQUEST"), model.AllCapabilities, lang.DelayMessage{D: d})
	h := newHarness(t, attack, model.AllCapabilities)
	start := time.Now()
	h.sw.send(t, 1, &openflow.EchoRequest{})
	h.ctrl.expect(t)
	if elapsed := time.Since(start); elapsed < d {
		t.Errorf("delivered after %v, want >= %v", elapsed, d)
	}
}

// newHarnessCfg is newHarness with extra injector config tweaks, over the
// default net.Pipe transport (synchronous rendezvous, strictest ordering).
func newHarnessCfg(t *testing.T, attack *lang.Attack, caps model.CapabilitySet, tweak func(*Config)) *harness {
	t.Helper()
	return newHarnessTr(t, attack, caps, netem.NewMemTransport(), tweak)
}

// newHarnessTr is newHarnessCfg with the transport injectable — sharded
// tests use buffered conns so batched flushes don't rendezvous per frame.
func newHarnessTr(t *testing.T, attack *lang.Attack, caps model.CapabilitySet, tr *netem.MemTransport, tweak func(*Config)) *harness {
	t.Helper()
	sys := model.Figure3System()
	conn := model.Conn{Controller: "c1", Switch: "s1"}
	am := model.NewAttackerModel()
	am.Grant(conn, caps)
	am.Grant(model.Conn{Controller: "c1", Switch: "s2"}, caps)

	ln, err := tr.Listen("c1")
	if err != nil {
		t.Fatal(err)
	}
	acceptCh := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			acceptCh <- c
		}
	}()
	cfg := Config{
		System: sys, Attacker: am, Attack: attack,
		Transport: tr, Clock: clock.New(),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		inj.Stop()
		ln.Close()
	})
	swConn, err := tr.Dial(inj.ProxyAddrFor(conn))
	if err != nil {
		t.Fatal(err)
	}
	var ctrlConn net.Conn
	select {
	case ctrlConn = <-acceptCh:
	case <-time.After(2 * time.Second):
		t.Fatal("proxy never dialed the controller")
	}
	return &harness{
		inj: inj, ctrl: newFakePeer(ctrlConn), sw: newFakePeer(swConn),
		conn: conn, tr: tr, acceptCh: acceptCh,
	}
}

// TestDelayOrderingSyncVsAsync pins the §VIII-C ordering trade-off: the
// default blocking delay preserves total order (a later barrier waits
// behind a delayed echo), while AsyncDelays lets the barrier overtake it.
func TestDelayOrderingSyncVsAsync(t *testing.T) {
	const d = 150 * time.Millisecond
	attack := func() *lang.Attack {
		return oneRuleAttack(isType("ECHO_REQUEST"), model.AllCapabilities, lang.DelayMessage{D: d})
	}

	t.Run("sync-preserves-order", func(t *testing.T) {
		h := newHarnessCfg(t, attack(), model.AllCapabilities, nil)
		h.sw.send(t, 1, &openflow.EchoRequest{})
		h.sw.send(t, 2, &openflow.BarrierRequest{})
		first, _ := h.ctrl.expect(t)
		second, _ := h.ctrl.expect(t)
		if first.Type != openflow.TypeEchoRequest || second.Type != openflow.TypeBarrierRequest {
			t.Errorf("order = %s, %s; want ECHO then BARRIER", first.Type, second.Type)
		}
	})

	t.Run("async-reorders", func(t *testing.T) {
		h := newHarnessCfg(t, attack(), model.AllCapabilities, func(c *Config) {
			c.AsyncDelays = true
		})
		h.sw.send(t, 1, &openflow.EchoRequest{})
		h.sw.send(t, 2, &openflow.BarrierRequest{})
		first, _ := h.ctrl.expect(t)
		second, _ := h.ctrl.expect(t)
		if first.Type != openflow.TypeBarrierRequest || second.Type != openflow.TypeEchoRequest {
			t.Errorf("order = %s, %s; want BARRIER overtaking the delayed ECHO", first.Type, second.Type)
		}
	})
}

func TestModifyField(t *testing.T) {
	attack := oneRuleAttack(isType("FLOW_MOD"), model.AllCapabilities,
		lang.ModifyField{Field: lang.PropFMIdle, Value: lang.Lit{Value: int64(0)}},
		lang.ModifyField{Field: lang.PropFMPriority, Value: lang.Lit{Value: int64(9)}},
	)
	h := newHarness(t, attack, model.AllCapabilities)
	h.ctrl.send(t, 3, &openflow.FlowMod{
		Match: openflow.MatchAll(), IdleTimeout: 5, Priority: 1,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
	})
	hd, m := h.sw.expect(t)
	fm, ok := m.(*openflow.FlowMod)
	if !ok {
		t.Fatalf("switch got %s", hd.Type)
	}
	if fm.IdleTimeout != 0 || fm.Priority != 9 {
		t.Errorf("modified flow mod = idle %d prio %d", fm.IdleTimeout, fm.Priority)
	}
	if hd.Xid != 3 {
		t.Errorf("xid = %d, want preserved 3", hd.Xid)
	}
}

func TestFuzzMessage(t *testing.T) {
	attack := oneRuleAttack(isType("ECHO_REQUEST"), model.AllCapabilities, lang.FuzzMessage{Seed: 7})
	h := newHarness(t, attack, model.AllCapabilities)
	orig := []byte("fuzz-payload-fuzz")
	h.sw.send(t, 1, &openflow.EchoRequest{Data: orig})
	select {
	case raw, ok := <-h.ctrl.got:
		if !ok {
			t.Fatal("conn closed")
		}
		want, _ := openflow.Marshal(1, &openflow.EchoRequest{Data: orig})
		if len(raw) != len(want) {
			t.Fatalf("fuzzed length %d, want %d (framing must survive)", len(raw), len(want))
		}
		if bytes.Equal(raw, want) {
			t.Error("fuzz did not change any bytes")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fuzzed frame never arrived")
	}
}

func TestStoreAndReplay(t *testing.T) {
	// Drop+store FLOW_MODs; on BARRIER_REQUEST, replay them in FIFO order.
	conn := model.Conn{Controller: "c1", Switch: "s1"}
	a := lang.NewAttack("replay", "s0")
	a.AddState(&lang.State{
		Name: "s0",
		Rules: []*lang.Rule{
			{
				Name: "capture", Conns: []model.Conn{conn}, Caps: model.AllCapabilities,
				Cond:    isType("FLOW_MOD"),
				Actions: []lang.Action{lang.StoreMessage{Deque: "q"}, lang.DropMessage{}},
			},
			{
				Name: "release", Conns: []model.Conn{conn}, Caps: model.AllCapabilities,
				Cond: isType("BARRIER_REQUEST"),
				Actions: []lang.Action{
					lang.SendStored{Deque: "q"},
					lang.SendStored{Deque: "q"},
				},
			},
		},
	})
	h := newHarness(t, a, model.AllCapabilities)

	fm1 := &openflow.FlowMod{Match: openflow.MatchAll(), Priority: 1, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone}
	fm2 := &openflow.FlowMod{Match: openflow.MatchAll(), Priority: 2, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone}
	h.ctrl.send(t, 1, fm1)
	h.ctrl.send(t, 2, fm2)
	h.sw.expectNone(t, 50*time.Millisecond)
	// Barrier alone does not order against messages still inside the
	// session readers, so poll the (thread-safe) deque instead.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && h.inj.Storage().Deque("q").Len() < 2 {
		time.Sleep(2 * time.Millisecond)
	}
	if n := h.inj.Storage().Deque("q").Len(); n != 2 {
		t.Fatalf("stored %d messages, want 2", n)
	}

	// Trigger replay.
	h.ctrl.send(t, 3, &openflow.BarrierRequest{})
	// Barrier request itself passes, plus the two replayed flow mods.
	var priorities []uint16
	var sawBarrier bool
	for i := 0; i < 3; i++ {
		_, m := h.sw.expect(t)
		switch msg := m.(type) {
		case *openflow.FlowMod:
			priorities = append(priorities, msg.Priority)
		case *openflow.BarrierRequest:
			sawBarrier = true
		}
	}
	if !sawBarrier {
		t.Error("barrier request did not pass through")
	}
	if len(priorities) != 2 || priorities[0] != 1 || priorities[1] != 2 {
		t.Errorf("replayed priorities = %v, want [1 2] (FIFO)", priorities)
	}
}

func TestInjectTemplateMessage(t *testing.T) {
	attack := oneRuleAttack(isType("ECHO_REQUEST"), model.AllCapabilities,
		lang.InjectMessage{Template: "flow_mod_delete_all", Direction: lang.ControllerToSwitch})
	h := newHarness(t, attack, model.AllCapabilities)
	h.sw.send(t, 1, &openflow.EchoRequest{})
	// The echo passes to the controller; the switch receives the forged
	// flow-table wipe.
	if hd, _ := h.ctrl.expect(t); hd.Type != openflow.TypeEchoRequest {
		t.Errorf("controller got %s", hd.Type)
	}
	hd, m := h.sw.expect(t)
	if hd.Type != openflow.TypeFlowMod {
		t.Fatalf("switch got %s", hd.Type)
	}
	if fm := m.(*openflow.FlowMod); fm.Command != openflow.FlowModDelete {
		t.Errorf("injected command = %s", fm.Command)
	}
}

func TestCounterDeque(t *testing.T) {
	// Count HELLOs; transition after the 3rd (the §VIII-B O(1) idiom).
	conn := model.Conn{Controller: "c1", Switch: "s1"}
	a := lang.NewAttack("counter", "s0")
	// The §VIII-B counter idiom: PREPEND(n, SHIFT(n)+1).
	incr := []lang.Action{
		lang.DequePush{Deque: "n", Front: true, Value: lang.Arith{
			Op: lang.OpAdd, L: lang.DequeTake{Deque: "n"}, R: lang.Lit{Value: int64(1)},
		}},
	}
	a.AddState(&lang.State{
		Name: "s0",
		Rules: []*lang.Rule{
			{
				Name: "count", Conns: []model.Conn{conn}, Caps: model.AllCapabilities,
				Cond:    isType("HELLO"),
				Actions: incr,
			},
			{
				Name: "arm", Conns: []model.Conn{conn}, Caps: model.AllCapabilities,
				Cond: lang.And{Exprs: []lang.Expr{
					isType("HELLO"),
					lang.Cmp{Op: lang.OpGe, L: lang.DequeRead{Deque: "n"}, R: lang.Lit{Value: int64(2)}},
				}},
				Actions: []lang.Action{lang.GotoState{State: "armed"}},
			},
		},
	})
	a.AddState(&lang.State{Name: "armed"})
	h := newHarness(t, a, model.AllCapabilities)

	waitCounter := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if v, err := h.inj.Storage().Deque("n").ExamineFront(); err == nil {
				if got, _ := v.(int64); got >= n {
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		v, _ := h.inj.Storage().Deque("n").ExamineFront()
		t.Fatalf("counter never reached %d (counter=%v)", n, v)
	}

	// The counter moves mid-message, one rule before the transition it
	// arms; the barrier lets that message finish before σ is read.
	h.sw.send(t, 1, &openflow.Hello{})
	waitCounter(1)
	h.inj.Barrier()
	if got := h.inj.CurrentState(); got != "s0" {
		t.Fatalf("after 1 hello state = %s", got)
	}
	h.sw.send(t, 2, &openflow.Hello{})
	waitCounter(2)
	h.inj.Barrier()
	if got := h.inj.CurrentState(); got != "armed" {
		t.Fatalf("after 2 hellos state = %s", got)
	}
}

func TestSysCmdDispatch(t *testing.T) {
	attack := oneRuleAttack(isType("HELLO"), model.AllCapabilities,
		lang.SysCmd{Host: "h1", Cmd: "iperf -s"})
	h := newHarness(t, attack, model.AllCapabilities)
	ran := make(chan string, 1)
	h.inj.RegisterSysCmd("h1", func(cmd string) error {
		ran <- cmd
		return nil
	})
	h.sw.send(t, 1, &openflow.Hello{})
	select {
	case cmd := <-ran:
		if cmd != "iperf -s" {
			t.Errorf("cmd = %q", cmd)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("syscmd never dispatched")
	}
}

func TestRulesScopedToConnection(t *testing.T) {
	// The rule watches (c1,s1) only; traffic on (c1,s2) is untouched.
	attack := oneRuleAttack(lang.True, model.AllCapabilities, lang.DropMessage{})
	h := newHarness(t, attack, model.AllCapabilities)
	sw2, ctrl2 := h.openSecondConn(t)

	// (c1,s1) drops everything.
	h.sw.send(t, 1, &openflow.Hello{})
	h.ctrl.expectNone(t, 100*time.Millisecond)
	// (c1,s2) passes.
	sw2.send(t, 2, &openflow.Hello{})
	if hd, _ := ctrl2.expect(t); hd.Type != openflow.TypeHello {
		t.Errorf("(c1,s2) controller got %s", hd.Type)
	}
	h.inj.Barrier()
	if st := h.inj.Log().Stats(h.conn); st.Dropped != 1 {
		t.Errorf("(c1,s1) dropped = %d, want 1", st.Dropped)
	}
	conn2 := model.Conn{Controller: "c1", Switch: "s2"}
	if st := h.inj.Log().Stats(conn2); st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("(c1,s2) stats = %+v", st)
	}
}

func TestStochasticRuleDropsSomeMessages(t *testing.T) {
	// A 50% drop rule (the §VIII-A stochastic extension) should drop
	// roughly half of a long message train — and exactly the same subset
	// on every run with the same seed.
	a := lang.NewAttack("stochastic", "s0")
	a.AddState(&lang.State{
		Name: "s0",
		Rules: []*lang.Rule{{
			Name:    "coinflip",
			Conns:   []model.Conn{{Controller: "c1", Switch: "s1"}},
			Caps:    model.AllCapabilities,
			Cond:    isType("ECHO_REQUEST"),
			Prob:    0.5,
			Actions: []lang.Action{lang.DropMessage{}},
		}},
	})
	h := newHarness(t, a, model.AllCapabilities)

	const n = 200
	for i := 0; i < n; i++ {
		h.sw.send(t, uint32(i), &openflow.EchoRequest{})
	}
	// Wait for the executor to see every message (Barrier does not order
	// against frames still inside the session readers).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && h.inj.Log().Stats(h.conn).Seen < n {
		time.Sleep(2 * time.Millisecond)
	}
	st := h.inj.Log().Stats(h.conn)
	if st.Seen != n {
		t.Fatalf("seen = %d", st.Seen)
	}
	if st.Dropped == 0 || st.Dropped == n {
		t.Fatalf("dropped = %d of %d; want a strict subset", st.Dropped, n)
	}
	// Loose binomial bounds: P(outside [60,140]) is negligible.
	if st.Dropped < 60 || st.Dropped > 140 {
		t.Errorf("dropped = %d of %d, outside plausible 50%% range", st.Dropped, n)
	}
}

func TestSessionReconnectAfterClose(t *testing.T) {
	h := newHarness(t, trivialAttack(), model.AllCapabilities)
	h.sw.send(t, 1, &openflow.Hello{})
	h.ctrl.expect(t)
	// Kill the switch side; the proxy should accept a fresh session.
	_ = h.sw.conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	var swConn net.Conn
	var err error
	for time.Now().Before(deadline) {
		swConn, err = h.tr.Dial(h.inj.ProxyAddrFor(h.conn))
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	sw2 := newFakePeer(swConn)
	var ctrl2 *fakePeer
	select {
	case c := <-h.acceptCh:
		ctrl2 = newFakePeer(c)
	case <-time.After(2 * time.Second):
		t.Fatal("proxy never redialed controller")
	}
	sw2.send(t, 9, &openflow.Hello{})
	if hd, _ := ctrl2.expect(t); hd.Type != openflow.TypeHello {
		t.Errorf("after reconnect controller got %s", hd.Type)
	}
}
