package inject

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/netaddr"
	"attain/internal/openflow"
	"attain/internal/synth"
)

// TestDispatchBucketsMatchBruteForce rebuilds every bucket of synthesized
// attacks the slow way — each rule of the state, in declared order, that
// its dispatch admits — and requires the compiled program to agree.
func TestDispatchBucketsMatchBruteForce(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 50
	}
	gen, err := synth.New(synth.Config{Seed: 7, Vocab: synth.SystemVocabulary(model.Figure3System(), TemplateNames()...)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		prog, err := gen.Program(i)
		if err != nil {
			t.Fatal(err)
		}
		p := compileAttack(prog.Attack)
		for name, st := range prog.Attack.States {
			cs := p.states[name]
			for d, dir := range [2]lang.Direction{lang.SwitchToController, lang.ControllerToSwitch} {
				for key := 0; key <= noFrame; key++ {
					var want []*lang.Rule
					for _, rule := range st.Rules {
						if lang.CondDispatch(rule.Cond).Admits(dir, openflow.Type(key%noFrame), key != noFrame) {
							want = append(want, rule)
						}
					}
					got := cs.buckets[d][key]
					if len(got) != len(want) {
						t.Fatalf("program %d state %s %s key %d: %d rules, want %d", i, name, dir, key, len(got), len(want))
					}
					for j := range got {
						if got[j].rule != want[j] {
							t.Fatalf("program %d state %s %s key %d: rule %d is %s, want %s", i, name, dir, key, j, got[j].rule.Name, want[j].Name)
						}
					}
				}
			}
		}
	}
}

// ruleOutcomes replays Algorithm 1's matching with the interpreter over a
// state's full rule list — no dispatch — and returns the log details of
// what fired, what errored and where σ went, for one message.
func ruleOutcomes(a *lang.Attack, sigma *string, view *lang.MessageView, env *lang.Env) []string {
	var out []string
	prev := *sigma
	for _, rule := range a.States[prev].Rules {
		if !rule.AppliesTo(view.Conn) {
			continue
		}
		matched, err := lang.EvalCond(rule.Cond, env)
		if err != nil {
			out = append(out, fmt.Sprintf("ERROR rule %s conditional: %v", rule.Name, err))
			continue
		}
		if !matched {
			continue
		}
		out = append(out, fmt.Sprintf("RULE state %s rule %s matched", prev, rule.Name))
		for _, act := range rule.Actions {
			if g, ok := act.(lang.GotoState); ok {
				*sigma = g.State
				out = append(out, fmt.Sprintf("STATE %s -> %s (rule %s)", prev, g.State, rule.Name))
			}
		}
	}
	return out
}

func loggedOutcomes(log *Log) []string {
	var out []string
	for _, e := range log.Events(0) {
		switch e.Kind {
		case EventRule, EventState, EventError:
			out = append(out, e.Kind.String()+" "+e.Detail)
		}
	}
	return out
}

// mixedAttack mixes type-constrained and unconstrained rules in one state:
// a PACKET_IN moves σ mid-message, and the rules after the GotoState still
// run against the arrival state — DROP, then a DUPLICATE that finds nothing
// left to copy. errFirst's leading conjunct errors on every message (an
// ordered comparison on a string), so its msg.type conjunct must not be
// hoisted: its EventError is logged on messages of every type.
func mixedAttack() *lang.Attack {
	conns := []model.Conn{{Controller: "c1", Switch: "s1"}}
	rule := func(name string, cond lang.Expr, acts ...lang.Action) *lang.Rule {
		return &lang.Rule{Name: name, Conns: conns, Caps: model.AllCapabilities, Cond: cond, Actions: acts}
	}
	and := func(es ...lang.Expr) lang.Expr { return lang.And{Exprs: es} }
	s2c := lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropDirection}, R: lang.Lit{Value: "s2c"}}
	long := lang.Cmp{Op: lang.OpGt, L: lang.Prop{Name: lang.PropLength}, R: lang.Lit{Value: int64(8)}}
	a := lang.NewAttack("mixed", "s0")
	a.AddState(&lang.State{Name: "s0", Rules: []*lang.Rule{
		rule("errFirst", and(lang.Cmp{Op: lang.OpLt, L: lang.Prop{Name: lang.PropSource}, R: lang.Lit{Value: int64(3)}}, isType("FLOW_MOD"))),
		rule("arm", and(s2c, isType("PACKET_IN")), lang.GotoState{State: "s1"}),
		rule("any", long, lang.DropMessage{}),
		rule("fm", isType("FLOW_MOD"), lang.DuplicateMessage{}),
		rule("pi", and(long, isType("PACKET_IN")), lang.DuplicateMessage{}),
	}})
	a.AddState(&lang.State{Name: "s1", Rules: []*lang.Rule{
		rule("dupEcho", isType("ECHO_REQUEST"), lang.DuplicateMessage{}),
		rule("back", isType("FLOW_MOD"), lang.GotoState{State: "s0"}),
	}})
	return a
}

func TestDispatchKeepsRuleOrderAndErrors(t *testing.T) {
	attack := mixedAttack()
	inj, sh, sess := shardedLoopback(t, attack, func(cfg *Config) { cfg.LeanLog = false })
	sw, ctrl := &captureConn{}, &captureConn{}
	sess.toSwitch.W, sess.toCtrl.W = sw, ctrl

	frame := func(xid uint32, m openflow.Message) []byte {
		raw, err := openflow.Marshal(xid, m)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	steps := []struct {
		dir  lang.Direction
		raw  []byte
		want int // frames delivered
	}{
		{lang.SwitchToController, frame(1, &openflow.Hello{}), 1},
		{lang.SwitchToController, frame(2, &openflow.PacketIn{BufferID: 1, InPort: 2, Data: []byte{1}}), 0},
		{lang.SwitchToController, frame(3, &openflow.EchoRequest{Data: []byte("x")}), 2},
		{lang.ControllerToSwitch, frame(4, &openflow.FlowMod{Match: openflow.MatchAll(), BufferID: openflow.NoBuffer}), 1},
		{lang.ControllerToSwitch, frame(5, &openflow.FlowMod{Match: openflow.MatchAll(), BufferID: openflow.NoBuffer}), 0},
		{lang.ControllerToSwitch, []byte{1, 0xee, 0, 8, 0, 0, 0, 6}, 1}, // unknown type: no frame
	}
	sigma := attack.Start
	var want []string
	for i, s := range steps {
		view := &lang.MessageView{Conn: sess.conn, Direction: s.dir, Length: len(s.raw),
			Source: sess.conn.Switch, Destination: sess.conn.Controller}
		if s.dir == lang.ControllerToSwitch {
			view.Source, view.Destination = sess.conn.Controller, sess.conn.Switch
		}
		if f, err := openflow.NewFrame(s.raw); err == nil {
			view.SetFrame(f)
		}
		want = append(want, ruleOutcomes(attack, &sigma, view, &lang.Env{View: view, Storage: lang.NewStorage()})...)

		loop(t, sh, sess, s.dir, append(openflow.GetBuffer(), s.raw...))
		dst := ctrl
		if s.dir == lang.ControllerToSwitch {
			dst = sw
		}
		for k := 0; k < s.want; k++ {
			if got := dst.next(t); !bytes.Equal(got, s.raw) {
				t.Fatalf("step %d: delivered %x, want %x", i, got, s.raw)
			}
		}
		if sw.pending()+ctrl.pending() != 0 {
			t.Fatalf("step %d: more than %d frames delivered", i, s.want)
		}
		if got := inj.CurrentState(); got != sigma {
			t.Fatalf("step %d: σ = %s, want %s", i, got, sigma)
		}
	}
	got := loggedOutcomes(inj.Log())
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("log outcomes:\n%q\nwant (interpreter over every rule):\n%q", got, want)
	}
	errs := 0
	for _, line := range got {
		if line[:5] == "ERROR" {
			errs++
		}
	}
	if errs != 4 { // errFirst on every message s0 saw, frameless included
		t.Fatalf("%d conditional errors logged, want 4:\n%q", errs, got)
	}
	st := inj.Log().Stats(sess.conn)
	if st.Seen != 6 || st.Dropped != 2 || st.Duplicated != 1 || st.RuleFires != 7 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFramelessSessionMatchesUnconstrainedRules pins the no-frame bucket:
// a session without READMESSAGE evaluates exactly the rules with no type
// constraint, in order.
func TestFramelessSessionMatchesUnconstrainedRules(t *testing.T) {
	conns := []model.Conn{{Controller: "c1", Switch: "s1"}}
	mark := func(name string, cond lang.Expr) *lang.Rule {
		return &lang.Rule{Name: name, Conns: conns, Caps: model.AllCapabilities, Cond: cond,
			Actions: []lang.Action{lang.DequePush{Deque: "fired", Value: lang.Lit{Value: name}}}}
	}
	a := lang.NewAttack("frameless", "s0")
	a.AddState(&lang.State{Name: "s0", Rules: []*lang.Rule{
		mark("typed", isType("HELLO")),
		mark("always", lang.True),
		mark("typeSet", lang.In{L: lang.Prop{Name: lang.PropType}, Set: []lang.Expr{lang.Lit{Value: "HELLO"}, lang.Lit{Value: "ECHO_REQUEST"}}}),
		mark("wildType", lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropType}, R: lang.Lit{Value: ""}}),
		mark("meta", lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropDirection}, R: lang.Lit{Value: "s2c"}}),
	}})
	inj, sh, sess := shardedLoopback(t, a, nil)
	sess.caps = model.Caps(model.CapReadMessageMetadata)
	hello, err := openflow.Marshal(1, &openflow.Hello{})
	if err != nil {
		t.Fatal(err)
	}
	loop(t, sh, sess, lang.SwitchToController, append(openflow.GetBuffer(), hello...))
	var fired []string
	for d := inj.Storage().Deque("fired"); d.Len() > 0; {
		v, _ := d.Shift()
		fired = append(fired, v.(string))
	}
	if got, want := fmt.Sprint(fired), "[always wildType meta]"; got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	// Which rules a frameless message evaluates is invisible in outcomes
	// (a superset bucket would match the same), so pin the bucket itself.
	var bucket []string
	for _, cr := range inj.prog.states["s0"].buckets[lang.SwitchToController-1][noFrame] {
		bucket = append(bucket, cr.rule.Name)
	}
	if got, want := fmt.Sprint(bucket), "[always wildType meta]"; got != want {
		t.Fatalf("no-frame bucket %s, want %s", got, want)
	}
}

// proxyAttackState is the benchmark's proxy_attack shape: 14 decoy rules
// alternating FLOW_MOD (nw_src, nw_dst in a set) and PACKET_IN (in_port,
// buffer_id in a set), a FLOW_MOD nw_dst rewrite and a PACKET_IN drop.
func proxyAttackState() *lang.Attack {
	conns := []model.Conn{{Controller: "c1", Switch: "s1"}}
	ip := func(a, b, c, d byte) lang.Expr { return lang.Lit{Value: netaddr.IPv4{a, b, c, d}.String()} }
	eq := func(prop string, v lang.Expr) lang.Expr {
		return lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: prop}, R: v}
	}
	in := func(prop string, vs ...lang.Expr) lang.Expr { return lang.In{L: lang.Prop{Name: prop}, Set: vs} }
	int64s := func(ns ...int64) []lang.Expr {
		out := make([]lang.Expr, len(ns))
		for i, n := range ns {
			out[i] = lang.Lit{Value: n}
		}
		return out
	}
	st := &lang.State{Name: "sigma1"}
	add := func(name string, act lang.Action, es ...lang.Expr) {
		st.Rules = append(st.Rules, &lang.Rule{Name: name, Conns: conns, Caps: model.AllCapabilities,
			Cond: lang.And{Exprs: es}, Actions: []lang.Action{act}})
	}
	for k := byte(0); k < 14; k++ {
		if k%2 == 0 {
			add(fmt.Sprintf("decoy%d", k), lang.DropMessage{}, isType("FLOW_MOD"), eq(lang.PropMatchNWSrc, ip(10, 9, k, 200)),
				in(lang.PropMatchNWDst, ip(10, 9, k, 1), ip(10, 9, k, 2), ip(10, 9, k, 3), ip(10, 9, k, 4)))
		} else {
			add(fmt.Sprintf("decoy%d", k), lang.DropMessage{}, isType("PACKET_IN"), eq(lang.PropPIInPort, lang.Lit{Value: int64(1000 + int(k))}),
				in(lang.PropPIBufferID, int64s(1, 2, 3, 4)...))
		}
	}
	add("rewrite", lang.ModifyField{Field: lang.PropFMIdle, Value: lang.Lit{Value: int64(7)}},
		isType("FLOW_MOD"), in(lang.PropMatchNWDst, ip(10, 1, 0, 1), ip(10, 1, 0, 2)))
	add("droppi", lang.DropMessage{}, isType("PACKET_IN"), eq(lang.PropPIInPort, lang.Lit{Value: int64(60)}))
	a := lang.NewAttack("proxy-attack-shape", "sigma1")
	a.AddState(st)
	return a
}

// TestPassthroughZeroAllocProxyAttack extends TestPassthroughZeroAlloc to
// the 16-rule proxy_attack state: a FLOW_MOD (exact nw_src/nw_dst) and a
// PACKET_IN that no rule matches are evaluated against every rule of their
// type bucket without allocating.
func TestPassthroughZeroAllocProxyAttack(t *testing.T) {
	inj, sh, sess := shardedLoopback(t, proxyAttackState(), nil)
	fm, err := openflow.Marshal(7, &openflow.FlowMod{
		Match:    openflow.ExactFrom(openflow.FieldView{DLType: 0x0800, NWSrc: netaddr.IPv4{10, 0, 3, 4}, NWDst: netaddr.IPv4{10, 0, 5, 6}}),
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := openflow.Marshal(8, &openflow.PacketIn{BufferID: 100, InPort: 3, Data: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		dir  lang.Direction
		wire []byte
	}{{"FLOW_MOD", lang.ControllerToSwitch, fm}, {"PACKET_IN", lang.SwitchToController, pi}} {
		step := func() { loop(t, sh, sess, c.dir, append(openflow.GetBuffer(), c.wire...)) }
		step()
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 && !raceEnabled {
			t.Fatalf("%s through 16 non-matching rules allocates: %v allocs/op", c.name, allocs)
		}
	}
	if st := inj.Log().Stats(sess.conn); st.RuleFires != 0 || st.Seen != st.Delivered {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRuleEventsSkipFormattingPastLogLimit pins that rule events past
// LogLimit (with no writer) are not built, while the counters and the
// retained events stay exact.
func TestRuleEventsSkipFormattingPastLogLimit(t *testing.T) {
	attack := oneRuleAttack(isType("HELLO"), model.AllCapabilities, lang.PassMessage{})
	inj, sh, sess := shardedLoopback(t, attack, func(cfg *Config) { cfg.LogLimit = 4 })
	hello, err := openflow.Marshal(1, &openflow.Hello{})
	if err != nil {
		t.Fatal(err)
	}
	step := func() { loop(t, sh, sess, lang.SwitchToController, append(openflow.GetBuffer(), hello...)) }
	for i := 0; i < 3; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 && !raceEnabled {
		t.Fatalf("firing rule past the log limit allocates: %v allocs/op", allocs)
	}
	evs := inj.Log().Events(0)
	if len(evs) != 4 || evs[3].Detail != "state s0 rule r1 matched" {
		t.Fatalf("retained events: %v", evs)
	}
	if st := inj.Log().Stats(sess.conn); st.RuleFires != st.Seen || st.Seen < 100 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFireCountsSurviveMidMessagePublish pins the batched fire-path counts
// across a SLEEP, which publishes the batch's book mid-message: counts
// taken after it must still reach the log.
func TestFireCountsSurviveMidMessagePublish(t *testing.T) {
	attack := oneRuleAttack(isType("HELLO"), model.AllCapabilities,
		lang.DuplicateMessage{}, lang.Sleep{D: time.Microsecond}, lang.DropMessage{})
	inj, sh, sess := shardedLoopback(t, attack, nil)
	hello, err := openflow.Marshal(1, &openflow.Hello{})
	if err != nil {
		t.Fatal(err)
	}
	loop(t, sh, sess, lang.SwitchToController, append(openflow.GetBuffer(), hello...))
	st := inj.Log().Stats(sess.conn)
	if st.Seen != 1 || st.RuleFires != 1 || st.Duplicated != 1 || st.Dropped != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if total := inj.Log().TotalStats(); total != st {
		t.Fatalf("total %+v, conn %+v", total, st)
	}
}
