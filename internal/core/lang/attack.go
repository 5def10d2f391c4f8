package lang

import (
	"fmt"
	"sort"
	"strings"

	"attain/internal/core/model"
)

// Rule is one rule φ = (n, γ, λ, α) (§V-E): the connections it applies to,
// the capabilities it declares, its conditional, and its ordered actions.
type Rule struct {
	// Name identifies the rule in logs, e.g. "phi1".
	Name string
	// Conns is n: the control-plane connections the rule watches.
	Conns []model.Conn
	// Caps is γ: the capability set the rule claims to use. Validation
	// checks that the conditional and actions fit within it and that the
	// attacker model grants it on every watched connection.
	Caps model.CapabilitySet
	// Cond is λ.
	Cond Expr
	// Actions is α.
	Actions []Action
	// Prob makes the rule stochastic (the paper's §VIII-A future work):
	// when in (0,1), a matching message triggers the actions only with
	// this probability, drawn from the executor's seeded generator so
	// runs stay reproducible. 0 and 1 both mean "always".
	Prob float64
}

// AppliesTo reports whether the rule watches conn.
func (r *Rule) AppliesTo(conn model.Conn) bool {
	for _, c := range r.Conns {
		if c == conn {
			return true
		}
	}
	return false
}

// RequiredCaps returns the capabilities the rule actually needs: those of
// its conditional plus those of its actions.
func (r *Rule) RequiredCaps() model.CapabilitySet {
	caps := r.Cond.RequiredCaps()
	for _, a := range r.Actions {
		caps |= a.RequiredCaps()
	}
	return caps
}

// String renders the rule in the paper's (n, γ, λ, α) shape.
func (r *Rule) String() string {
	conns := make([]string, len(r.Conns))
	for i, c := range r.Conns {
		conns[i] = c.String()
	}
	acts := make([]string, len(r.Actions))
	for i, a := range r.Actions {
		acts[i] = a.String()
	}
	prob := ""
	if r.Prob > 0 && r.Prob < 1 {
		prob = fmt.Sprintf(" p=%g", r.Prob)
	}
	return fmt.Sprintf("%s: n={%s} γ=%s%s λ=%s α=[%s]",
		r.Name, strings.Join(conns, ","), r.Caps, prob, r.Cond, strings.Join(acts, "; "))
}

// State is one attack state σ ∈ Σ (§V-F): an unordered set of rules.
type State struct {
	Name  string
	Rules []*Rule
}

// IsEnd reports whether the state is an end state σ_end (no rules: all
// messages pass untouched, §V-F3).
func (s *State) IsEnd() bool { return len(s.Rules) == 0 }

// Attack is a complete attack description: its states and start state.
type Attack struct {
	// Name identifies the attack.
	Name string
	// States is Σ keyed by state name.
	States map[string]*State
	// Start names σ_start.
	Start string
}

// NewAttack creates an empty attack.
func NewAttack(name, start string) *Attack {
	return &Attack{Name: name, States: make(map[string]*State), Start: start}
}

// AddState inserts a state, replacing any previous one with the same name.
func (a *Attack) AddState(s *State) {
	a.States[s.Name] = s
}

// StateNames returns all state names sorted.
func (a *Attack) StateNames() []string {
	names := make([]string, 0, len(a.States))
	for n := range a.States {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate statically checks the attack against the system and attacker
// models:
//   - |Σ| ≥ 1 and the start state exists,
//   - every GOTOSTATE target exists,
//   - every rule watches declared control-plane connections,
//   - every rule's conditional and actions fit within its declared γ,
//   - every rule's γ is granted by the attacker model on each watched
//     connection.
func (a *Attack) Validate(sys *model.System, attacker *model.AttackerModel) error {
	if len(a.States) == 0 {
		return fmt.Errorf("lang: attack %q has no states", a.Name)
	}
	if _, ok := a.States[a.Start]; !ok {
		return fmt.Errorf("lang: attack %q start state %q does not exist", a.Name, a.Start)
	}
	validConns := make(map[model.Conn]bool, len(sys.ControlPlane))
	for _, c := range sys.ControlPlane {
		validConns[c] = true
	}
	for _, name := range a.StateNames() {
		st := a.States[name]
		for _, rule := range st.Rules {
			if len(rule.Conns) == 0 {
				return fmt.Errorf("lang: %s/%s watches no connections", name, rule.Name)
			}
			for _, conn := range rule.Conns {
				if !validConns[conn] {
					return fmt.Errorf("lang: %s/%s watches %s, which is not in N_C", name, rule.Name, conn)
				}
			}
			if rule.Prob < 0 || rule.Prob > 1 {
				return fmt.Errorf("lang: %s/%s probability %g outside [0,1]", name, rule.Name, rule.Prob)
			}
			if HasSideEffects(rule.Cond) {
				return fmt.Errorf("lang: %s/%s conditional mutates storage (use shift/pop in actions, examineFront/examineEnd in conditionals)", name, rule.Name)
			}
			need := rule.RequiredCaps()
			if !rule.Caps.HasAll(need) {
				missing := need &^ rule.Caps
				return fmt.Errorf("lang: %s/%s needs capabilities %s beyond its declared γ=%s",
					name, rule.Name, missing, rule.Caps)
			}
			if attacker != nil {
				for _, conn := range rule.Conns {
					granted := attacker.CapsFor(conn)
					if !granted.HasAll(rule.Caps) {
						missing := rule.Caps &^ granted
						return fmt.Errorf("lang: %s/%s requires %s on %s, but the attacker model grants only %s",
							name, rule.Name, missing, conn, granted)
					}
				}
			}
			for _, act := range rule.Actions {
				switch x := act.(type) {
				case GotoState:
					if _, exists := a.States[x.State]; !exists {
						return fmt.Errorf("lang: %s/%s transitions to unknown state %q", name, rule.Name, x.State)
					}
				case ModifyField:
					if !SettableProperty(x.Field) {
						return fmt.Errorf("lang: %s/%s modifies %s, which MODIFYFIELD cannot set", name, rule.Name, x.Field)
					}
				}
			}
		}
	}
	return nil
}

// Lint returns non-fatal warnings about an attack description: states
// unreachable from the start state, rules that can never fire (their state
// has a preceding rule on the same connections with an always-true
// conditional that drops), and PASSMESSAGE-only end-like states that could
// be written as rule-less end states.
func (a *Attack) Lint() []string {
	var warnings []string
	g := a.Graph()
	reach := g.Reachable()
	for _, name := range a.StateNames() {
		if !reach[name] {
			warnings = append(warnings, fmt.Sprintf("state %q is unreachable from start state %q", name, a.Start))
		}
	}
	for _, name := range a.StateNames() {
		st := a.States[name]
		onlyPass := len(st.Rules) > 0
		for _, rule := range st.Rules {
			if len(rule.Actions) != 1 {
				onlyPass = false
				break
			}
			if _, ok := rule.Actions[0].(PassMessage); !ok {
				onlyPass = false
				break
			}
		}
		if onlyPass {
			warnings = append(warnings, fmt.Sprintf("state %q only passes messages; a rule-less end state expresses this directly", name))
		}
	}
	// Shadowing: within a state, a rule after an unconditional drop on the
	// same connection never sees its message delivered decisions change —
	// flag unconditional drop rules that precede other rules.
	for _, name := range a.StateNames() {
		st := a.States[name]
		for i, rule := range st.Rules {
			if i == len(st.Rules)-1 {
				continue
			}
			if lit, ok := rule.Cond.(Lit); !ok || lit.Value != true {
				continue
			}
			drops := false
			for _, act := range rule.Actions {
				if _, ok := act.(DropMessage); ok {
					drops = true
				}
			}
			if drops {
				warnings = append(warnings, fmt.Sprintf(
					"state %q rule %q drops every message; later rules in the state still run but their pass/modify decisions are moot for the dropped original", name, rule.Name))
			}
		}
	}
	return warnings
}

// Transition is one edge of the attack state graph with its action labels
// A_{Σ_G}.
type Transition struct {
	From, To string
	// Labels are the string forms of the actions in rules of From that
	// can move the attack to To.
	Labels []string
}

// StateGraph is Σ_G = (V, E, A) (§V-G), derived from an attack's GOTOSTATE
// actions.
type StateGraph struct {
	Attack *Attack
	// Edges holds the valid transitions, sorted by (From, To).
	Edges []Transition
}

// Graph derives the attack state graph.
func (a *Attack) Graph() *StateGraph {
	type key struct{ from, to string }
	edgeLabels := make(map[key][]string)
	for _, name := range a.StateNames() {
		st := a.States[name]
		for _, rule := range st.Rules {
			for _, act := range rule.Actions {
				if g, ok := act.(GotoState); ok {
					k := key{from: name, to: g.State}
					edgeLabels[k] = append(edgeLabels[k], rule.Name)
				}
			}
		}
	}
	g := &StateGraph{Attack: a}
	for k, labels := range edgeLabels {
		sort.Strings(labels)
		g.Edges = append(g.Edges, Transition{From: k.from, To: k.to, Labels: labels})
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i].From != g.Edges[j].From {
			return g.Edges[i].From < g.Edges[j].From
		}
		return g.Edges[i].To < g.Edges[j].To
	})
	return g
}

// Absorbing returns the absorbing states σ_absorbing: states with no
// transitions to a different state (§V-F2).
func (g *StateGraph) Absorbing() []string {
	outgoing := make(map[string]bool)
	for _, e := range g.Edges {
		if e.From != e.To {
			outgoing[e.From] = true
		}
	}
	var out []string
	for _, name := range g.Attack.StateNames() {
		if !outgoing[name] {
			out = append(out, name)
		}
	}
	return out
}

// End returns the end states σ_end ⊆ σ_absorbing: absorbing states with no
// rules (§V-F3).
func (g *StateGraph) End() []string {
	var out []string
	for _, name := range g.Absorbing() {
		if g.Attack.States[name].IsEnd() {
			out = append(out, name)
		}
	}
	return out
}

// Reachable returns the states reachable from the start state.
func (g *StateGraph) Reachable() map[string]bool {
	adj := make(map[string][]string)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	seen := map[string]bool{g.Attack.Start: true}
	stack := []string{g.Attack.Start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range adj[cur] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

// DOT renders the attack state graph in the style of the paper's Figures
// 5, 6, 10b, and 12b.
func (g *StateGraph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Attack.Name)
	b.WriteString("  rankdir=LR;\n  node [shape=circle, fontname=\"Helvetica\"];\n")
	fmt.Fprintf(&b, "  start [shape=point];\n  start -> %q;\n", g.Attack.Start)
	end := make(map[string]bool)
	for _, name := range g.End() {
		end[name] = true
	}
	for _, name := range g.Attack.StateNames() {
		shape := "circle"
		if end[name] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  %q [shape=%s];\n", name, shape)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.From, e.To, strings.Join(e.Labels, ","))
	}
	b.WriteString("}\n")
	return b.String()
}

// Describe renders the attack textually in the paper's Figure 10a / 12a
// style.
func (a *Attack) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attack %q (start=%s)\n", a.Name, a.Start)
	g := a.Graph()
	fmt.Fprintf(&b, "absorbing=%v end=%v\n", g.Absorbing(), g.End())
	for _, name := range a.StateNames() {
		st := a.States[name]
		fmt.Fprintf(&b, "state %s:\n", name)
		if st.IsEnd() {
			b.WriteString("  (no rules: all messages pass)\n")
		}
		for _, rule := range st.Rules {
			fmt.Fprintf(&b, "  %s\n", rule)
		}
	}
	return b.String()
}
