package lang

import (
	"fmt"
	"testing"
	"time"

	"attain/internal/core/model"
	"attain/internal/netaddr"
	"attain/internal/openflow"
)

// The compiled conditionals checked against the interpreter inside the
// package: a small frame corpus, every property crossed with a literal
// menu, and CondDispatch's admitted sets. compile's tests run the same
// oracle over generated programs; these keep lang's own coverage honest.

// compiledViews returns frameless views and one framed view per test
// message, in both directions.
func compiledViews(t *testing.T) []*MessageView {
	t.Helper()
	exact := openflow.ExactFrom(openflow.FieldView{
		InPort: 3, DLSrc: netaddr.MAC{0, 0, 0, 0, 0, 1}, DLDst: netaddr.MAC{0xaa, 0xbb, 0xcc, 0, 0, 2},
		DLType: 0x0800, NWProto: 6, NWSrc: netaddr.IPv4{10, 0, 0, 1}, NWDst: netaddr.IPv4{10, 1, 2, 3},
		TPSrc: 1234, TPDst: 80,
	})
	msgs := []openflow.Message{
		&openflow.Hello{},
		&openflow.EchoRequest{Data: []byte("x")},
		&openflow.PacketIn{BufferID: 2, InPort: 1001, Reason: openflow.PacketInReasonAction, Data: []byte{1}},
		&openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: openflow.PortNone, Data: []byte{1}},
		&openflow.FlowMod{Match: openflow.MatchAll(), BufferID: openflow.NoBuffer, OutPort: openflow.PortNone},
		&openflow.FlowMod{Match: exact, Command: openflow.FlowModDelete, Priority: 100, IdleTimeout: 10, HardTimeout: 30, BufferID: 3},
		&openflow.FlowRemoved{Match: exact, Priority: 5},
	}
	conn := model.Conn{Controller: "c1", Switch: "s1"}
	var views []*MessageView
	for _, dir := range []Direction{SwitchToController, ControllerToSwitch} {
		views = append(views, &MessageView{Conn: conn, Direction: dir, Source: conn.Switch,
			Destination: conn.Controller, Timestamp: time.Unix(0, 1700), Length: 8, ID: 1})
		for i, m := range msgs {
			raw, err := openflow.Marshal(uint32(i+1), m)
			if err != nil {
				t.Fatal(err)
			}
			f, err := openflow.NewFrame(raw)
			if err != nil {
				t.Fatal(err)
			}
			v := &MessageView{Conn: conn, Direction: dir, Source: conn.Switch, Destination: conn.Controller,
				Timestamp: time.Unix(0, 1700), Length: len(raw), ID: uint64(i + 2)}
			v.SetFrame(f)
			views = append(views, v)
		}
	}
	return views
}

// compiledLits are canonical and non-canonical addresses, known and
// unknown type and enum names, the wildcard "", and integers around the
// corpus values.
var compiledLits = []Value{
	"", "10.0.0.1", "010.0.0.1", "00:00:00:00:00:01", "AA:BB:CC:00:00:02", "aa:bb:cc:00:00:02",
	"FLOW_MOD", "PACKET_IN", "UNKNOWN_TYPE(200)", "DELETE", "ACTION", "s2c", "c2s", "s1",
	int64(-1), int64(0), int64(3), int64(80), int64(100), int64(1001), int64(2048), true,
}

// compiledMenu crosses every property with lit and other in the node
// shapes CompileCond specialises, and some it does not.
func compiledMenu(lit, other Value, op CmpOp) []Expr {
	typeIs := Cmp{Op: OpEq, L: Prop{Name: PropType}, R: Lit{Value: "FLOW_MOD"}}
	var out []Expr
	for _, name := range Properties() {
		p := Prop{Name: name}
		out = append(out,
			Cmp{Op: OpEq, L: p, R: Lit{Value: lit}},
			Cmp{Op: OpNe, L: Lit{Value: lit}, R: p},
			Cmp{Op: op, L: p, R: Lit{Value: lit}},
			Cmp{Op: op, L: Lit{Value: other}, R: p},
			In{L: p, Set: []Expr{Lit{Value: lit}, Lit{Value: other}}},
			And{Exprs: []Expr{Cmp{Op: op, L: p, R: Lit{Value: lit}}, typeIs}},
			And{Exprs: []Expr{typeIs, Not{Expr: Cmp{Op: OpEq, L: p, R: Lit{Value: other}}}}},
			Or{Exprs: []Expr{Cmp{Op: OpEq, L: p, R: Prop{Name: PropType}}, Lit{Value: lit}}},
			Cmp{Op: OpEq, L: p, R: Arith{Op: OpAdd, L: DequeRead{Deque: "counter"}, R: Lit{Value: other}}},
		)
	}
	return append(out,
		In{L: Prop{Name: PropType}, Set: []Expr{Lit{Value: lit}, Lit{Value: "PACKET_IN"}}},
		In{L: Lit{Value: lit}, Set: []Expr{Lit{Value: other}}},
		In{L: Prop{Name: PropType}, Set: []Expr{DequeRead{Deque: "counter"}}},
		And{Exprs: []Expr{Cmp{Op: OpEq, L: Prop{Name: PropDirection}, R: Lit{Value: lit}}, typeIs}},
		Or{Exprs: []Expr{Lit{Value: lit}, Not{Expr: Lit{Value: other}}}},
		Not{Expr: Prop{Name: PropLength}},
		Cmp{Op: op, L: Lit{Value: lit}, R: Lit{Value: other}},
		Lit{Value: lit},
		Prop{Name: PropType},
	)
}

// checkCompiled compares the compiled conditional with the interpreter on
// env, and checks that dispatch only excludes (false, nil) outcomes.
func checkCompiled(t *testing.T, cond Expr, fn CondFunc, d Dispatch, env *Env) {
	t.Helper()
	want, werr := EvalCond(cond, env)
	got, gerr := fn(env)
	if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: compiled (%v, %v), interpreted (%v, %v)", cond, got, gerr, want, werr)
	}
	if env.View == nil {
		return
	}
	f, hasFrame := env.View.Frame()
	if !d.Admits(env.View.Direction, f.Type(), hasFrame) && (want || werr != nil) {
		t.Fatalf("%s dispatched away from a view it evaluates to (%v, %v) on", cond, want, werr)
	}
}

func TestCompileCondMatchesInterpreter(t *testing.T) {
	views := compiledViews(t)
	st := NewStorage()
	st.Deque("counter").Append(int64(3))
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for i, lit := range compiledLits {
		other := compiledLits[(i*7+3)%len(compiledLits)]
		for _, cond := range compiledMenu(lit, other, ops[i%len(ops)]) {
			fn, d := CompileCond(cond), CondDispatch(cond)
			for _, v := range views {
				checkCompiled(t, cond, fn, d, &Env{View: v, Storage: st})
			}
			// No view at all, and a decoded Msg: both take the interpreter.
			checkCompiled(t, cond, fn, d, &Env{Storage: st})
			decoded := *views[len(views)-1]
			if decoded.Materialize() {
				checkCompiled(t, cond, fn, d, &Env{View: &decoded, Storage: st})
			}
		}
	}
}

func TestCondDispatchAdmits(t *testing.T) {
	typeIs := func(name string) Expr { return Cmp{Op: OpEq, L: Prop{Name: PropType}, R: Lit{Value: name}} }
	dirIs := func(dir string) Expr { return Cmp{Op: OpEq, L: Lit{Value: dir}, R: Prop{Name: PropDirection}} }
	mayErr := Cmp{Op: OpLt, L: Prop{Name: PropLength}, R: Lit{Value: int64(10)}}
	fm, pi := openflow.TypeFlowMod, openflow.TypePacketIn
	s2c, c2s := SwitchToController, ControllerToSwitch

	type admit struct {
		dir      Direction
		t        openflow.Type
		hasFrame bool
		want     bool
	}
	for _, tc := range []struct {
		name   string
		cond   Expr
		admits []admit
	}{
		{"unconstrained", Lit{Value: true}, []admit{{s2c, fm, true, true}, {c2s, 0, false, true}}},
		{"type", typeIs("FLOW_MOD"), []admit{{c2s, fm, true, true}, {c2s, pi, true, false}, {c2s, 0, false, false}}},
		{"type set", In{L: Prop{Name: PropType}, Set: []Expr{Lit{Value: "FLOW_MOD"}, Lit{Value: "PACKET_IN"}, Lit{Value: "NOPE"}}},
			[]admit{{s2c, pi, true, true}, {s2c, fm, true, true}, {s2c, openflow.TypeHello, true, false}}},
		{"set with wildcard", In{L: Prop{Name: PropType}, Set: []Expr{Lit{Value: "FLOW_MOD"}, Lit{Value: ""}}},
			[]admit{{s2c, pi, true, true}, {s2c, 0, false, true}}},
		{"set with non-literal", In{L: Prop{Name: PropType}, Set: []Expr{DequeRead{Deque: "d"}}},
			[]admit{{s2c, pi, true, true}}},
		{"direction", dirIs("c2s"), []admit{{c2s, fm, true, true}, {s2c, fm, true, false}}},
		{"unknown direction", dirIs("sideways"), []admit{{c2s, fm, true, true}, {s2c, fm, true, true}}},
		{"conjunction", And{Exprs: []Expr{typeIs("FLOW_MOD"), dirIs("c2s"), Prop{Name: PropLength}}},
			[]admit{{c2s, fm, true, true}, {s2c, fm, true, false}, {c2s, pi, true, false}}},
		{"two types", And{Exprs: []Expr{typeIs("FLOW_MOD"), typeIs("PACKET_IN")}},
			[]admit{{c2s, fm, true, false}, {s2c, pi, true, false}}},
		{"two directions", And{Exprs: []Expr{dirIs("c2s"), dirIs("s2c")}},
			[]admit{{c2s, fm, true, false}, {s2c, fm, true, false}}},
		{"after a conjunct that may error", And{Exprs: []Expr{mayErr, typeIs("FLOW_MOD")}},
			[]admit{{c2s, pi, true, true}}},
		{"after a non-boolean conjunct", And{Exprs: []Expr{Prop{Name: PropLength}, typeIs("FLOW_MOD")}},
			[]admit{{c2s, pi, true, true}}},
		{"after error-free connectives", And{Exprs: []Expr{
			Or{Exprs: []Expr{Not{Expr: Lit{Value: false}}, In{L: Prop{Name: PropXid}, Set: []Expr{Lit{Value: int64(1)}}}}},
			typeIs("FLOW_MOD")}},
			[]admit{{c2s, fm, true, true}, {c2s, pi, true, false}}},
		{"after an erroring set", And{Exprs: []Expr{In{L: Prop{Name: PropXid}, Set: []Expr{Arith{Op: OpAdd, L: Lit{Value: int64(1)}, R: Lit{Value: "x"}}}}, typeIs("FLOW_MOD")}},
			[]admit{{c2s, pi, true, true}}},
		{"after an erroring NOT", And{Exprs: []Expr{Not{Expr: Prop{Name: PropXid}}, typeIs("FLOW_MOD")}},
			[]admit{{c2s, pi, true, true}}},
		{"ordered type test", Cmp{Op: OpNe, L: Prop{Name: PropType}, R: Lit{Value: "FLOW_MOD"}},
			[]admit{{c2s, fm, true, true}}},
	} {
		d := CondDispatch(tc.cond)
		for _, a := range tc.admits {
			if got := d.Admits(a.dir, a.t, a.hasFrame); got != a.want {
				t.Errorf("%s: Admits(%s, %s, frame=%v) = %v, want %v", tc.name, a.dir, a.t, a.hasFrame, got, a.want)
			}
		}
	}
}
