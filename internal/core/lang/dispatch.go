package lang

import "attain/internal/openflow"

// Dispatch is the set of messages a conditional can match at all, read off
// its leading conjuncts so the injector can skip evaluating it on the rest.
// A message outside the set evaluates to (false, nil): no match and no
// error, so skipping the rule is exactly Algorithm 1's outcome.
type Dispatch struct {
	// types, when typed is set, holds the ofp_type codes the conditional
	// admits; messages without a frame (msg.type reads "") are outside.
	types [4]uint64
	typed bool
	// dir, when non-zero, is the only direction the conditional admits.
	dir Direction
}

// CondDispatch derives e's Dispatch. A conjunct constrains the set when it
// is `msg.type = "X"`, `msg.type in {...}` or `msg.direction = "d"` (either
// operand order) over literal names, and is the whole conditional or a
// top-level AND conjunct preceded only by conjuncts that cannot error —
// a conjunct after one that may error would hide that error if hoisted.
// The analysis assumes the injector's environment: a message view and a
// storage are always in scope.
func CondDispatch(e Expr) Dispatch {
	var d Dispatch
	conjuncts := []Expr{e}
	if and, ok := e.(And); ok {
		conjuncts = and.Exprs
	}
	for _, c := range conjuncts {
		if !isBool(c) || canErr(c) {
			break
		}
		if types, ok := typeConstraint(c); ok {
			if d.typed {
				for i := range d.types {
					d.types[i] &= types[i]
				}
			} else {
				d.types, d.typed = types, true
			}
		}
		if dir, ok := dirConstraint(c); ok {
			if d.dir != 0 && d.dir != dir {
				// Two different directions: nothing is admitted.
				d.types, d.typed = [4]uint64{}, true
			}
			d.dir = dir
		}
	}
	return d
}

// Admits reports whether a message travelling dir, with a frame of type t
// (hasFrame) or without one, may match.
func (d Dispatch) Admits(dir Direction, t openflow.Type, hasFrame bool) bool {
	if d.dir != 0 && d.dir != dir {
		return false
	}
	if !d.typed {
		return true
	}
	return hasFrame && d.types[t/64]&(1<<(t%64)) != 0
}

// typeConstraint recognises a msg.type test over literal type names. A set
// that contains "" also admits frameless messages and constrains nothing.
func typeConstraint(c Expr) (types [4]uint64, ok bool) {
	keys, ok := propLits(c, PropType)
	if !ok {
		return types, false
	}
	p, _ := lowerProp(PropType)
	for _, lit := range keys {
		n, _, valid := p.key(lit)
		if !valid {
			continue
		}
		if n < 0 {
			return types, false
		}
		types[n/64] |= 1 << (n % 64)
	}
	return types, true
}

// dirConstraint recognises `msg.direction = "s2c"` (or "c2s").
func dirConstraint(c Expr) (Direction, bool) {
	keys, ok := propLits(c, PropDirection)
	if !ok || len(keys) != 1 {
		return 0, false
	}
	for _, d := range []Direction{SwitchToController, ControllerToSwitch} {
		if keys[0] == Value(d.String()) {
			return d, true
		}
	}
	return 0, false
}

// propLits matches `prop = lit`, `lit = prop` and `prop in {lits}`,
// returning the literals.
func propLits(c Expr, prop string) ([]Value, bool) {
	isProp := func(e Expr) bool { p, ok := e.(Prop); return ok && p.Name == prop }
	switch x := c.(type) {
	case Cmp:
		if x.Op != OpEq {
			return nil, false
		}
		if l, ok := x.R.(Lit); ok && isProp(x.L) {
			return []Value{l.Value}, true
		}
		if l, ok := x.L.(Lit); ok && isProp(x.R) {
			return []Value{l.Value}, true
		}
	case In:
		if !isProp(x.L) {
			return nil, false
		}
		vals := make([]Value, len(x.Set))
		for i, sub := range x.Set {
			l, ok := sub.(Lit)
			if !ok {
				return nil, false
			}
			vals[i] = l.Value
		}
		return vals, true
	}
	return nil, false
}

// canErr reports whether evaluating e may return an error, given a view and
// a storage in scope (so property and deque reads never do).
func canErr(e Expr) bool {
	switch x := e.(type) {
	case Lit, Prop, DequeRead:
		return false
	case Cmp:
		return (x.Op != OpEq && x.Op != OpNe) || canErr(x.L) || canErr(x.R)
	case In:
		for _, sub := range x.Set {
			if canErr(sub) {
				return true
			}
		}
		return canErr(x.L)
	case And:
		return anyCanErr(x.Exprs)
	case Or:
		return anyCanErr(x.Exprs)
	case Not:
		return anyCanErr([]Expr{x.Expr})
	}
	return true
}

// anyCanErr checks a connective's operands, which also error when they are
// not boolean.
func anyCanErr(subs []Expr) bool {
	for _, sub := range subs {
		if !isBool(sub) || canErr(sub) {
			return true
		}
	}
	return false
}
