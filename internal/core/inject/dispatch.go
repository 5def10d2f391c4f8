package inject

import (
	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/openflow"
)

// noFrame is the bucket of messages without a payload view: sessions
// without READMESSAGE, and frames NewFrame rejects. msg.type reads "" there,
// so only rules with no type constraint can match.
const noFrame = 256

// program is the attack compiled once at New for the executor's hot path:
// each state's rules bucketed by direction and OF type (lang.CondDispatch),
// with conditionals lowered by lang.CompileCond. A message evaluates only
// its bucket's rules, still in the state's declared order.
type program struct {
	states map[string]*compiledState
	// rules numbers every rule occurrence; connCounters.watch is indexed by
	// compiledRule.id.
	rules []*compiledRule
}

type compiledState struct {
	// buckets[dir-1][type or noFrame] lists the rules a message may match.
	buckets [2][noFrame + 1][]*compiledRule
}

type compiledRule struct {
	id   int
	rule *lang.Rule
	cond lang.CondFunc
}

func compileAttack(a *lang.Attack) *program {
	p := &program{states: make(map[string]*compiledState, len(a.States))}
	for name, st := range a.States {
		cs := &compiledState{}
		dispatch := make([]lang.Dispatch, len(st.Rules))
		rules := make([]*compiledRule, len(st.Rules))
		for i, rule := range st.Rules {
			rules[i] = &compiledRule{id: len(p.rules), rule: rule, cond: lang.CompileCond(rule.Cond)}
			dispatch[i] = lang.CondDispatch(rule.Cond)
			p.rules = append(p.rules, rules[i])
		}
		for d, dir := range [2]lang.Direction{lang.SwitchToController, lang.ControllerToSwitch} {
			var unconstrained []*compiledRule
			for i, r := range rules {
				if dispatch[i].Admits(dir, 0, false) {
					unconstrained = append(unconstrained, r)
				}
			}
			cs.buckets[d][noFrame] = unconstrained
			for t := 0; t < noFrame; t++ {
				var bucket []*compiledRule
				typed := false
				for i, r := range rules {
					if dispatch[i].Admits(dir, openflow.Type(t), true) {
						bucket = append(bucket, r)
						typed = typed || !dispatch[i].Admits(dir, 0, false)
					}
				}
				if !typed {
					// Only unconstrained rules: share that list.
					bucket = unconstrained
				}
				cs.buckets[d][t] = bucket
			}
		}
		p.states[name] = cs
	}
	return p
}

// bindWatches gives every proxied connection's counters the mask of rules
// watching it, so the per-message connection check is one slice index.
func (p *program) bindWatches(counters map[model.Conn]*connCounters) {
	for _, c := range counters {
		c.watch = make([]bool, len(p.rules))
	}
	for _, r := range p.rules {
		for _, conn := range r.rule.Conns {
			if c, ok := counters[conn]; ok {
				c.watch[r.id] = true
			}
		}
	}
}

// pinnedConns returns the connections shard 0 must own (see shardFor):
// when any rule shares state, every connection a rule watches. A GOTO
// shares σ; deque actions and expressions share Δ. Otherwise nil.
func (p *program) pinnedConns() map[model.Conn]bool {
	shares := false
	for _, cr := range p.rules {
		shares = shares || touchesDeque(cr.rule.Cond)
		for _, act := range cr.rule.Actions {
			switch x := act.(type) {
			case lang.GotoState, lang.StoreMessage, lang.SendStored, lang.DequePush, lang.DequeDiscard:
				shares = true
			case lang.ModifyField:
				shares = shares || touchesDeque(x.Value)
			case lang.ModifyMetadata:
				shares = shares || touchesDeque(x.Value)
			}
		}
	}
	if !shares {
		return nil
	}
	pinned := make(map[model.Conn]bool)
	for _, cr := range p.rules {
		for _, c := range cr.rule.Conns {
			pinned[c] = true
		}
	}
	return pinned
}

// touchesDeque reports whether evaluating e reads or writes Δ.
func touchesDeque(e lang.Expr) bool {
	return lang.Any(e, func(x lang.Expr) bool {
		switch x.(type) {
		case lang.DequeRead, lang.DequeTake:
			return true
		}
		return false
	})
}
