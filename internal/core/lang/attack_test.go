package lang

import (
	"strings"
	"testing"
	"time"

	"attain/internal/core/model"
)

// figure10Attack builds the flow-mod suppression attack of Figure 10: one
// absorbing state dropping FLOW_MODs to all four switches.
func figure10Attack(conns []model.Conn) *Attack {
	a := NewAttack("flowmod-suppression", "sigma1")
	a.AddState(&State{
		Name: "sigma1",
		Rules: []*Rule{{
			Name:    "phi1",
			Conns:   conns,
			Caps:    model.AllCapabilities,
			Cond:    Cmp{Op: OpEq, L: Prop{Name: PropType}, R: Lit{Value: "FLOW_MOD"}},
			Actions: []Action{DropMessage{}},
		}},
	})
	return a
}

// figure12Attack builds the three-state connection interruption attack of
// Figure 12 against (c1,s2).
func figure12Attack(conn model.Conn) *Attack {
	a := NewAttack("connection-interruption", "sigma1")
	a.AddState(&State{
		Name: "sigma1",
		Rules: []*Rule{{
			Name:  "phi1",
			Conns: []model.Conn{conn},
			Caps:  model.AllCapabilities,
			Cond: And{Exprs: []Expr{
				Cmp{Op: OpEq, L: Prop{Name: PropSource}, R: Lit{Value: "s2"}},
				Cmp{Op: OpEq, L: Prop{Name: PropType}, R: Lit{Value: "HELLO"}},
			}},
			Actions: []Action{PassMessage{}, GotoState{State: "sigma2"}},
		}},
	})
	a.AddState(&State{
		Name: "sigma2",
		Rules: []*Rule{{
			Name:  "phi2",
			Conns: []model.Conn{conn},
			Caps:  model.AllCapabilities,
			Cond: And{Exprs: []Expr{
				Cmp{Op: OpEq, L: Prop{Name: PropType}, R: Lit{Value: "FLOW_MOD"}},
				Cmp{Op: OpEq, L: Prop{Name: PropMatchNWSrc}, R: Lit{Value: "10.0.0.2"}},
			}},
			Actions: []Action{DropMessage{}, GotoState{State: "sigma3"}},
		}},
	})
	a.AddState(&State{
		Name: "sigma3",
		Rules: []*Rule{{
			Name:    "phi3",
			Conns:   []model.Conn{conn},
			Caps:    model.AllCapabilities,
			Cond:    True,
			Actions: []Action{DropMessage{}},
		}},
	})
	return a
}

func TestTrivialAttackIsEndState(t *testing.T) {
	// Figure 5: a single state with no rules models normal operation.
	a := NewAttack("trivial", "sigma1")
	a.AddState(&State{Name: "sigma1"})
	if err := a.Validate(model.Figure3System(), nil); err != nil {
		t.Fatalf("trivial attack invalid: %v", err)
	}
	g := a.Graph()
	if got := g.Absorbing(); len(got) != 1 || got[0] != "sigma1" {
		t.Errorf("absorbing = %v", got)
	}
	if got := g.End(); len(got) != 1 || got[0] != "sigma1" {
		t.Errorf("end = %v", got)
	}
}

func TestFigure12GraphShape(t *testing.T) {
	conn := model.Conn{Controller: "c1", Switch: "s2"}
	a := figure12Attack(conn)
	g := a.Graph()

	if len(g.Edges) != 2 {
		t.Fatalf("edges = %v", g.Edges)
	}
	if g.Edges[0].From != "sigma1" || g.Edges[0].To != "sigma2" {
		t.Errorf("edge 0 = %+v", g.Edges[0])
	}
	if g.Edges[1].From != "sigma2" || g.Edges[1].To != "sigma3" {
		t.Errorf("edge 1 = %+v", g.Edges[1])
	}
	// sigma3 is absorbing but NOT an end state (it has a drop-all rule).
	if got := g.Absorbing(); len(got) != 1 || got[0] != "sigma3" {
		t.Errorf("absorbing = %v", got)
	}
	if got := g.End(); len(got) != 0 {
		t.Errorf("end = %v, want none", got)
	}
	reach := g.Reachable()
	for _, s := range []string{"sigma1", "sigma2", "sigma3"} {
		if !reach[s] {
			t.Errorf("%s unreachable", s)
		}
	}
}

func TestValidateAgainstAttackerModel(t *testing.T) {
	sys := model.Figure3System()
	conn := model.Conn{Controller: "c1", Switch: "s2"}
	a := figure12Attack(conn)

	// Full capabilities: valid.
	am := model.NewAttackerModel()
	am.Grant(conn, model.AllCapabilities)
	if err := a.Validate(sys, am); err != nil {
		t.Fatalf("valid attack rejected: %v", err)
	}

	// TLS-only grant: φ2 reads the payload, which Γ_TLS forbids.
	amTLS := model.NewAttackerModel()
	amTLS.Grant(conn, model.TLSCapabilities)
	err := a.Validate(sys, amTLS)
	if err == nil {
		t.Fatal("attack requiring READMESSAGE accepted under Γ_TLS")
	}
	if !strings.Contains(err.Error(), "attacker model grants only") {
		t.Errorf("error = %v", err)
	}
}

func TestValidateRuleDeclaredCaps(t *testing.T) {
	sys := model.Figure3System()
	conn := model.Conn{Controller: "c1", Switch: "s1"}
	a := NewAttack("undeclared", "s0")
	a.AddState(&State{
		Name: "s0",
		Rules: []*Rule{{
			Name:  "r",
			Conns: []model.Conn{conn},
			// Declares only DROPMESSAGE but the conditional reads payload.
			Caps:    model.Caps(model.CapDropMessage),
			Cond:    Cmp{Op: OpEq, L: Prop{Name: PropType}, R: Lit{Value: "FLOW_MOD"}},
			Actions: []Action{DropMessage{}},
		}},
	})
	err := a.Validate(sys, nil)
	if err == nil || !strings.Contains(err.Error(), "beyond its declared") {
		t.Errorf("undeclared capability use not caught: %v", err)
	}
}

func TestValidateStructuralErrors(t *testing.T) {
	sys := model.Figure3System()
	conn := model.Conn{Controller: "c1", Switch: "s1"}

	empty := NewAttack("empty", "s0")
	if err := empty.Validate(sys, nil); err == nil {
		t.Error("attack with no states accepted")
	}

	badStart := NewAttack("bad-start", "nope")
	badStart.AddState(&State{Name: "s0"})
	if err := badStart.Validate(sys, nil); err == nil {
		t.Error("missing start state accepted")
	}

	badGoto := NewAttack("bad-goto", "s0")
	badGoto.AddState(&State{
		Name: "s0",
		Rules: []*Rule{{
			Name: "r", Conns: []model.Conn{conn}, Caps: model.AllCapabilities,
			Cond: True, Actions: []Action{GotoState{State: "missing"}},
		}},
	})
	if err := badGoto.Validate(sys, nil); err == nil || !strings.Contains(err.Error(), "unknown state") {
		t.Errorf("dangling goto: %v", err)
	}

	// MODIFYFIELD may set only the settable rows of the field table: the
	// executor would otherwise forward every matching message unmodified.
	for field, ok := range map[string]bool{
		PropXid: false, PropMatchDLType: false, PropLength: false, PropFMIdle: true, PropMatchInPort: true,
	} {
		a := NewAttack("modify", "s0")
		a.AddState(&State{
			Name: "s0",
			Rules: []*Rule{{
				Name: "r", Conns: []model.Conn{conn}, Caps: model.AllCapabilities,
				Cond: True, Actions: []Action{ModifyField{Field: field, Value: Lit{Value: int64(5)}}},
			}},
		})
		err := a.Validate(sys, nil)
		if ok != (err == nil) || err != nil && !strings.Contains(err.Error(), field) {
			t.Errorf("modify %s: %v", field, err)
		}
	}

	badConn := NewAttack("bad-conn", "s0")
	badConn.AddState(&State{
		Name: "s0",
		Rules: []*Rule{{
			Name:  "r",
			Conns: []model.Conn{{Controller: "c1", Switch: "sX"}},
			Caps:  model.AllCapabilities, Cond: True,
			Actions: []Action{DropMessage{}},
		}},
	})
	if err := badConn.Validate(sys, nil); err == nil || !strings.Contains(err.Error(), "not in N_C") {
		t.Errorf("unknown connection: %v", err)
	}

	noConns := NewAttack("no-conns", "s0")
	noConns.AddState(&State{
		Name:  "s0",
		Rules: []*Rule{{Name: "r", Caps: model.AllCapabilities, Cond: True}},
	})
	if err := noConns.Validate(sys, nil); err == nil || !strings.Contains(err.Error(), "no connections") {
		t.Errorf("rule with no connections: %v", err)
	}
}

func TestRuleRequiredCaps(t *testing.T) {
	r := &Rule{
		Name: "r",
		Cond: Cmp{Op: OpEq, L: Prop{Name: PropSource}, R: Lit{Value: "s1"}},
		Actions: []Action{
			DropMessage{},
			DelayMessage{D: time.Second},
			DequePush{Deque: "d", Value: Lit{Value: int64(1)}},
		},
	}
	want := model.Caps(model.CapReadMessageMetadata, model.CapDropMessage, model.CapDelayMessage)
	if got := r.RequiredCaps(); got != want {
		t.Errorf("RequiredCaps = %s, want %s", got, want)
	}
}

func TestActionCapabilityMapping(t *testing.T) {
	tests := []struct {
		action Action
		want   model.CapabilitySet
	}{
		{DropMessage{}, model.Caps(model.CapDropMessage)},
		{PassMessage{}, model.Caps(model.CapPassMessage)},
		{DelayMessage{D: time.Second}, model.Caps(model.CapDelayMessage)},
		{DuplicateMessage{}, model.Caps(model.CapDuplicateMessage)},
		{FuzzMessage{}, model.Caps(model.CapFuzzMessage)},
		{ModifyField{Field: PropFMIdle, Value: Lit{Value: int64(0)}}, model.Caps(model.CapModifyMessage)},
		{ModifyMetadata{Field: PropSource, Value: Lit{Value: "x"}}, model.Caps(model.CapModifyMessageMetadata)},
		{InjectMessage{Template: "echo_request"}, model.Caps(model.CapInjectNewMessage)},
		{SendStored{Deque: "d"}, model.Caps(model.CapInjectNewMessage)},
		{StoreMessage{Deque: "d"}, model.Caps(model.CapReadMessage)},
		{DequePush{Deque: "d", Value: Lit{Value: int64(1)}}, model.NoCapabilities},
		{DequeDiscard{Deque: "d"}, model.NoCapabilities},
		{GotoState{State: "x"}, model.NoCapabilities},
		{Sleep{D: time.Second}, model.NoCapabilities},
		{SysCmd{Host: "h1", Cmd: "iperf -s"}, model.NoCapabilities},
	}
	for _, tc := range tests {
		if got := tc.action.RequiredCaps(); got != tc.want {
			t.Errorf("%s caps = %s, want %s", tc.action, got, tc.want)
		}
	}
}

func TestGraphDOTAndDescribe(t *testing.T) {
	conn := model.Conn{Controller: "c1", Switch: "s2"}
	a := figure12Attack(conn)
	dot := a.Graph().DOT()
	for _, want := range []string{`"sigma1" -> "sigma2"`, `"sigma2" -> "sigma3"`, "label=\"phi1\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	desc := a.Describe()
	for _, want := range []string{"state sigma1", "phi2", "γ=Γ_NoTLS", "drop"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q", want)
		}
	}
}

func TestFigure10Validates(t *testing.T) {
	sys := model.Figure3System()
	conns := []model.Conn{
		{Controller: "c1", Switch: "s1"},
		{Controller: "c1", Switch: "s2"},
	}
	a := figure10Attack(conns)
	am := model.NewAttackerModel()
	for _, c := range conns {
		am.Grant(c, model.AllCapabilities)
	}
	if err := a.Validate(sys, am); err != nil {
		t.Fatalf("Figure 10 attack invalid: %v", err)
	}
	// Single absorbing, non-end state.
	g := a.Graph()
	if abs := g.Absorbing(); len(abs) != 1 || abs[0] != "sigma1" {
		t.Errorf("absorbing = %v", abs)
	}
	if end := g.End(); len(end) != 0 {
		t.Errorf("end = %v", end)
	}
}

func TestLintWarnings(t *testing.T) {
	conn := model.Conn{Controller: "c1", Switch: "s1"}

	// Unreachable state.
	a := NewAttack("lint", "s0")
	a.AddState(&State{Name: "s0"})
	a.AddState(&State{Name: "orphan"})
	warnings := a.Lint()
	if len(warnings) != 1 || !strings.Contains(warnings[0], "unreachable") {
		t.Errorf("warnings = %v", warnings)
	}

	// Pass-only state.
	b := NewAttack("lint2", "s0")
	b.AddState(&State{
		Name: "s0",
		Rules: []*Rule{{
			Name: "r", Conns: []model.Conn{conn}, Caps: model.AllCapabilities,
			Cond: True, Actions: []Action{PassMessage{}},
		}},
	})
	warnings = b.Lint()
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "only passes") {
			found = true
		}
	}
	if !found {
		t.Errorf("pass-only state not flagged: %v", warnings)
	}

	// Unconditional drop shadowing a later rule.
	c := NewAttack("lint3", "s0")
	c.AddState(&State{
		Name: "s0",
		Rules: []*Rule{
			{Name: "dropAll", Conns: []model.Conn{conn}, Caps: model.AllCapabilities,
				Cond: True, Actions: []Action{DropMessage{}}},
			{Name: "shadowed", Conns: []model.Conn{conn}, Caps: model.AllCapabilities,
				Cond: True, Actions: []Action{DelayMessage{D: time.Second}}},
		},
	})
	warnings = c.Lint()
	found = false
	for _, w := range warnings {
		if strings.Contains(w, "drops every message") {
			found = true
		}
	}
	if !found {
		t.Errorf("shadowing drop not flagged: %v", warnings)
	}

	// A clean attack yields no warnings.
	clean := figure12Attack(model.Conn{Controller: "c1", Switch: "s2"})
	if warnings := clean.Lint(); len(warnings) != 0 {
		t.Errorf("clean attack warned: %v", warnings)
	}
}

func TestRuleAppliesTo(t *testing.T) {
	c1s1 := model.Conn{Controller: "c1", Switch: "s1"}
	c1s2 := model.Conn{Controller: "c1", Switch: "s2"}
	r := &Rule{Conns: []model.Conn{c1s1}}
	if !r.AppliesTo(c1s1) || r.AppliesTo(c1s2) {
		t.Error("AppliesTo wrong")
	}
}
