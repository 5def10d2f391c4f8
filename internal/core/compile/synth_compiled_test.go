package compile_test

// Differential oracle for the injector's compiled conditionals: every rule
// of every synthesized program, and a menu of hand-picked conditionals over
// every property, must give the same (matched, error) through
// lang.CompileCond as through the tree-walking interpreter (lang.EvalCond)
// on a corpus of frames, and lang.CondDispatch must only ever exclude a
// message the interpreter evaluates to (false, nil).

import (
	"fmt"
	"testing"
	"time"

	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/netaddr"
	"attain/internal/openflow"
)

// condFrames is the frame corpus: one valid frame per message type (the
// openflow fuzz seeds), FLOW_MODs with exact, wildcarded and partially
// masked nw_src/nw_dst, and FLOW_MOD/PACKET_IN/PACKET_OUT frames whose
// header length cuts the body short.
func condFrames(t testing.TB) [][]byte {
	t.Helper()
	exact := openflow.ExactFrom(openflow.FieldView{
		InPort: 3, DLSrc: netaddr.MAC{0, 0, 0, 0, 0, 1}, DLDst: netaddr.MAC{0xaa, 0xbb, 0xcc, 0, 0, 2},
		DLType: 0x0800, NWProto: 6, NWSrc: netaddr.IPv4{10, 0, 0, 1}, NWDst: netaddr.IPv4{10, 1, 2, 3},
		TPSrc: 1234, TPDst: 80,
	})
	masked := exact
	masked.SetNWSrcMaskBits(24)
	masked.SetNWDstMaskBits(0)
	msgs := []openflow.Message{
		&openflow.Hello{},
		&openflow.ErrorMsg{ErrType: 3, Code: 1, Data: []byte{1}},
		&openflow.EchoRequest{Data: []byte("seed")},
		&openflow.EchoReply{},
		&openflow.Vendor{VendorID: 0x2320},
		&openflow.FeaturesRequest{},
		&openflow.FeaturesReply{DatapathID: 7, NBuffers: 256, NTables: 1, Ports: []openflow.PhyPort{{PortNo: 1, Name: "p1"}}},
		&openflow.GetConfigRequest{},
		&openflow.GetConfigReply{MissSendLen: 128},
		&openflow.SetConfig{MissSendLen: 128},
		&openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: 1, Data: []byte{0xde, 0xad}},
		&openflow.PacketIn{BufferID: 2, InPort: 1001, Reason: openflow.PacketInReasonAction, Data: []byte{1}},
		&openflow.FlowRemoved{Match: openflow.MatchAll(), Reason: openflow.FlowRemovedIdleTimeout},
		&openflow.FlowRemoved{Match: exact, Priority: 5},
		&openflow.PortStatus{Reason: openflow.PortStatusModify, Desc: openflow.PhyPort{PortNo: 2}},
		&openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: openflow.PortNone,
			Actions: []openflow.Action{openflow.ActionOutput{Port: openflow.PortFlood}}, Data: []byte{1}},
		&openflow.FlowMod{Match: openflow.MatchAll(), BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
			Actions: []openflow.Action{openflow.ActionOutput{Port: 1}, openflow.ActionSetNWTOS{TOS: 4}}},
		&openflow.FlowMod{Match: exact, Command: openflow.FlowModDelete, Priority: 100, IdleTimeout: 10, HardTimeout: 30, BufferID: 3},
		&openflow.FlowMod{Match: masked, Priority: 1, BufferID: openflow.NoBuffer, OutPort: openflow.PortNone},
		&openflow.PortMod{PortNo: 1},
		&openflow.StatsRequest{Body: &openflow.FlowStatsRequest{Match: openflow.MatchAll(), TableID: 0xff, OutPort: openflow.PortNone}},
		&openflow.StatsReply{Body: &openflow.AggregateStatsReply{PacketCount: 1}},
		&openflow.BarrierRequest{},
		&openflow.BarrierReply{},
		&openflow.QueueGetConfigRequest{Port: 1},
		&openflow.QueueGetConfigReply{Port: 1},
	}
	var frames [][]byte
	for i, m := range msgs {
		raw, err := openflow.Marshal(uint32(i+1), m)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, raw)
		switch m.(type) {
		case *openflow.FlowMod, *openflow.PacketIn, *openflow.PacketOut, *openflow.FlowRemoved:
			// Truncated bodies: the match only, and the header only.
			for _, n := range []int{openflow.HeaderLen + 40, openflow.HeaderLen + 4} {
				if n < len(raw) {
					cut := append([]byte(nil), raw[:n]...)
					cut[2], cut[3] = byte(n>>8), byte(n)
					frames = append(frames, cut)
				}
			}
		}
	}
	return append(frames, []byte{0x01, 14, 0x00, 0x09, 0, 0, 0, 0, 0xff}) // short flow mod
}

// condViews builds the views a conditional is checked on: each frame in
// both directions, plus frameless views (a session without READMESSAGE).
func condViews(frames [][]byte) []*lang.MessageView {
	conn := model.Conn{Controller: "c1", Switch: "s1"}
	var views []*lang.MessageView
	add := func(dir lang.Direction, raw []byte) {
		v := &lang.MessageView{
			Conn: conn, Direction: dir, Timestamp: time.Unix(0, 1700), Length: len(raw), ID: uint64(len(views) + 1),
			Source: conn.Switch, Destination: conn.Controller,
		}
		if dir == lang.ControllerToSwitch {
			v.Source, v.Destination = conn.Controller, conn.Switch
		}
		if raw != nil {
			f, err := openflow.NewFrame(raw)
			if err != nil {
				return
			}
			v.SetFrame(f)
		}
		views = append(views, v)
	}
	for _, dir := range []lang.Direction{lang.SwitchToController, lang.ControllerToSwitch} {
		add(dir, nil)
		for _, raw := range frames {
			add(dir, raw)
		}
	}
	return views
}

func condStorage() *lang.Storage {
	st := lang.NewStorage()
	st.Deque("counter").Append(int64(3))
	st.Deque("d1").Append(&lang.Captured{Raw: []byte{1}})
	st.Deque("d1").Append("s2c")
	return st
}

// checkCond compares the compiled conditional against the interpreter on
// one view, and the dispatch analysis against the interpreter's outcome.
func checkCond(t testing.TB, what string, cond lang.Expr, fn lang.CondFunc, d lang.Dispatch, env *lang.Env) {
	t.Helper()
	want, werr := lang.EvalCond(cond, env)
	got, gerr := fn(env)
	if got != want || errString(gerr) != errString(werr) {
		t.Fatalf("%s: %s on %s view: compiled (%v, %v), interpreted (%v, %v)",
			what, cond, viewName(env.View), got, gerr, want, werr)
	}
	f, hasFrame := env.View.Frame()
	if !d.Admits(env.View.Direction, f.Type(), hasFrame) && (want || werr != nil) {
		t.Fatalf("%s: %s is dispatched away from a %s view it evaluates to (%v, %v) on",
			what, cond, viewName(env.View), want, werr)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func viewName(v *lang.MessageView) string {
	if f, ok := v.Frame(); ok {
		return fmt.Sprintf("%s %s len=%d", v.Direction, f.Type(), f.Len())
	}
	return v.Direction.String() + " frameless"
}

func TestSynthCompiledCondMatchesInterpreter(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	gen := sweepGenerator(t, 42)
	views := condViews(condFrames(t))
	env := &lang.Env{Storage: condStorage(), System: gen.System()}
	rules := 0
	for i := 0; i < n; i++ {
		prog, err := gen.Program(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range prog.Attack.States {
			for _, rule := range st.Rules {
				rules++
				fn, d := lang.CompileCond(rule.Cond), lang.CondDispatch(rule.Cond)
				for _, v := range views {
					env.View = v
					checkCond(t, fmt.Sprintf("program %d rule %s", i, rule.Name), rule.Cond, fn, d, env)
				}
			}
		}
	}
	if rules == 0 {
		t.Fatal("generator produced no rules")
	}
}

// condLits are the literals the hand-picked conditionals compare against:
// canonical and non-canonical addresses, type and enum names (known and
// rendered-unknown), the wildcard "", and integers on both sides of the
// corpus values.
var condLits = []lang.Value{
	"", "10.0.0.1", "10.1.2.3", "010.0.0.1", "10.0.0.0", "00:00:00:00:00:01", "AA:BB:CC:00:00:02",
	"aa:bb:cc:00:00:02", "FLOW_MOD", "PACKET_IN", "HELLO", "UNKNOWN_TYPE(200)", "DELETE", "ADD",
	"NO_MATCH", "ACTION", "s2c", "c2s", "c1", "s1", "flow_mod",
	int64(-1), int64(0), int64(1), int64(3), int64(6), int64(80), int64(100), int64(1001), int64(2048),
	int64(0xffffffff), int64(0xffff), true,
}

// menuConds crosses every property with the literal menu in the node shapes
// CompileCond specialises (and some it does not).
func menuConds(lit, other lang.Value, op lang.CmpOp) []lang.Expr {
	typeIs := lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropType}, R: lang.Lit{Value: "FLOW_MOD"}}
	var out []lang.Expr
	for _, name := range lang.Properties() {
		p := lang.Prop{Name: name}
		out = append(out,
			lang.Cmp{Op: lang.OpEq, L: p, R: lang.Lit{Value: lit}},
			lang.Cmp{Op: lang.OpNe, L: lang.Lit{Value: lit}, R: p},
			lang.Cmp{Op: op, L: p, R: lang.Lit{Value: lit}},
			lang.Cmp{Op: op, L: lang.Lit{Value: other}, R: p},
			lang.In{L: p, Set: []lang.Expr{lang.Lit{Value: lit}, lang.Lit{Value: other}}},
			lang.And{Exprs: []lang.Expr{lang.Cmp{Op: op, L: p, R: lang.Lit{Value: lit}}, typeIs}},
			lang.And{Exprs: []lang.Expr{typeIs, lang.Not{Expr: lang.Cmp{Op: lang.OpEq, L: p, R: lang.Lit{Value: other}}}}},
			lang.Or{Exprs: []lang.Expr{lang.Cmp{Op: lang.OpEq, L: p, R: lang.Prop{Name: lang.PropType}}, lang.Lit{Value: lit}}},
			lang.Cmp{Op: lang.OpEq, L: p, R: lang.Arith{Op: lang.OpAdd, L: lang.DequeRead{Deque: "counter"}, R: lang.Lit{Value: other}}},
		)
	}
	return append(out,
		lang.In{L: lang.Prop{Name: lang.PropType}, Set: []lang.Expr{lang.Lit{Value: lit}, lang.Lit{Value: "PACKET_IN"}}},
		lang.And{Exprs: []lang.Expr{lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropDirection}, R: lang.Lit{Value: lit}}, typeIs}},
		lang.Cmp{Op: op, L: lang.Lit{Value: lit}, R: lang.Lit{Value: other}},
		lang.Lit{Value: lit},
	)
}

var menuOps = []lang.CmpOp{lang.OpEq, lang.OpNe, lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe}

func TestCompiledCondPropertyMenu(t *testing.T) {
	views := condViews(condFrames(t))
	env := &lang.Env{Storage: condStorage()}
	for i, lit := range condLits {
		other := condLits[(i*7+3)%len(condLits)]
		for _, cond := range menuConds(lit, other, menuOps[i%len(menuOps)]) {
			fn, d := lang.CompileCond(cond), lang.CondDispatch(cond)
			for _, v := range views {
				env.View = v
				checkCond(t, "menu", cond, fn, d, env)
			}
		}
	}
}

// FuzzCompiledCondDifferential drives the property menu with arbitrary
// frames and literals.
func FuzzCompiledCondDifferential(f *testing.F) {
	for i, raw := range condFrames(f) {
		f.Add(raw, "10.0.0.1", int64(i), uint8(i))
		f.Add(raw, "FLOW_MOD", int64(-1), uint8(i+1))
	}
	f.Add([]byte{}, "", int64(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, s string, n int64, sel uint8) {
		views := condViews([][]byte{raw})
		env := &lang.Env{Storage: condStorage()}
		for _, lit := range []lang.Value{s, n} {
			other := condLits[int(sel)%len(condLits)]
			for _, cond := range menuConds(lit, other, menuOps[int(sel)%len(menuOps)]) {
				fn, d := lang.CompileCond(cond), lang.CondDispatch(cond)
				for _, v := range views {
					env.View = v
					checkCond(t, "fuzz", cond, fn, d, env)
				}
			}
		}
	})
}
