package lang

import (
	"errors"
	"fmt"

	"attain/internal/netaddr"
	"attain/internal/openflow"
)

// CondFunc is a conditional lowered by CompileCond. It reports whether the
// message in env matches, with the same result and error as EvalCond.
type CondFunc func(env *Env) (bool, error)

// errNotBoolean is the rule engine's error for a conditional whose value
// is not a bool.
var errNotBoolean = errors.New("conditional is not boolean")

// EvalCond evaluates a rule conditional with the tree-walking interpreter:
// Expr.Eval, then the rule engine's requirement that the value be a bool.
// It is the reference CompileCond is checked against.
func EvalCond(e Expr, env *Env) (bool, error) {
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, errNotBoolean
	}
	return b, nil
}

// CompileCond lowers a conditional once into closures over the message's
// openflow.Frame, for the injector's per-message path. Property reads go
// to fixed frame offsets and compare unboxed integers: a literal is
// converted into the property's domain at compile time (a canonical
// dotted quad becomes a uint32, a type name an ofp_type code), and a
// literal no value of the property can equal folds to a constant. `in`
// over literals becomes a small table, and comparisons between literals
// fold.
// Nodes with no specialisation — DequeRead, Arith, comparisons between
// non-literal operands, ordered comparisons that need the interpreter's
// error — run their own Eval. Views without the frame path (no view, or a
// decoded Msg, which takes precedence in Prop.Eval) use EvalCond.
func CompileCond(e Expr) CondFunc {
	fn := interpreted(e)
	if isBool(e) {
		fn = compileBool(e)
	}
	return func(env *Env) (bool, error) {
		if v := env.View; v == nil || v.Msg != nil {
			return EvalCond(e, env)
		}
		return fn(env)
	}
}

// isBool reports whether e always evaluates to a bool (or an error).
func isBool(e Expr) bool {
	switch x := e.(type) {
	case And, Or, Not, Cmp, In:
		return true
	case Lit:
		_, ok := x.Value.(bool)
		return ok
	}
	return false
}

// operand compiles a connective's operand, keeping the connective's
// "not boolean" error for operands that evaluate to something else.
func operand(sub Expr, conn string) CondFunc {
	if isBool(sub) {
		return compileBool(sub)
	}
	return func(env *Env) (bool, error) {
		v, err := sub.Eval(env)
		if err != nil {
			return false, err
		}
		b, ok := v.(bool)
		if !ok {
			return false, fmt.Errorf("lang: %s operand %s is not boolean", conn, sub)
		}
		return b, nil
	}
}

func operands(subs []Expr, conn string) []CondFunc {
	fns := make([]CondFunc, len(subs))
	for i, sub := range subs {
		fns[i] = operand(sub, conn)
	}
	return fns
}

// compileBool lowers a node isBool accepts.
func compileBool(e Expr) CondFunc {
	switch x := e.(type) {
	case And:
		fns := operands(x.Exprs, "AND")
		return func(env *Env) (bool, error) {
			for _, fn := range fns {
				if b, err := fn(env); err != nil || !b {
					return false, err
				}
			}
			return true, nil
		}
	case Or:
		fns := operands(x.Exprs, "OR")
		return func(env *Env) (bool, error) {
			for _, fn := range fns {
				if b, err := fn(env); err != nil || b {
					return b, err
				}
			}
			return false, nil
		}
	case Not:
		fn := operand(x.Expr, "NOT")
		return func(env *Env) (bool, error) {
			b, err := fn(env)
			return !b && err == nil, err
		}
	case Cmp:
		return compileCmp(x)
	case In:
		return compileIn(x)
	}
	return constant(e)
}

// constant folds a node whose value does not depend on env.
func constant(e Expr) CondFunc {
	b, err := EvalCond(e, nil)
	return func(*Env) (bool, error) { return b, err }
}

func isLit(e Expr) bool {
	_, ok := e.(Lit)
	return ok
}

func compileCmp(x Cmp) CondFunc {
	if isLit(x.L) && isLit(x.R) {
		return constant(x)
	}
	p, lit, propLeft, ok := propAndLit(x.L, x.R)
	if !ok {
		return interpreted(x)
	}
	switch x.Op {
	case OpEq, OpNe:
		eq := x.Op == OpEq
		n, s, ok := p.key(lit)
		switch {
		case !ok:
			return func(*Env) (bool, error) { return !eq, nil }
		case p.strs != nil:
			return func(env *Env) (bool, error) { return (p.strs(env.View) == s) == eq, nil }
		default:
			return func(env *Env) (bool, error) { return (p.ints(env.View) == n) == eq, nil }
		}
	}
	n, ok := asInt(lit)
	if p.kind != propInt || !ok || x.Op < OpLt || x.Op > OpGe {
		return interpreted(x)
	}
	op := x.Op
	return func(env *Env) (bool, error) {
		l, r := p.ints(env.View), n
		if !propLeft {
			l, r = r, l
		}
		switch op {
		case OpLt:
			return l < r, nil
		case OpLe:
			return l <= r, nil
		case OpGt:
			return l > r, nil
		default:
			return l >= r, nil
		}
	}
}

func compileIn(x In) CondFunc {
	allLits := true
	for _, sub := range x.Set {
		allLits = allLits && isLit(sub)
	}
	if allLits && isLit(x.L) {
		return constant(x)
	}
	prop, isProp := x.L.(Prop)
	var p lowered
	if isProp {
		p, isProp = lowerProp(prop.Name)
	}
	if !allLits || !isProp {
		return interpreted(x)
	}
	var ns []int64
	var ss []string
	for _, sub := range x.Set {
		if n, s, ok := p.key(sub.(Lit).Value); ok {
			ns, ss = append(ns, n), append(ss, s)
		}
	}
	if p.strs != nil {
		return func(env *Env) (bool, error) {
			v := p.strs(env.View)
			for _, s := range ss {
				if v == s {
					return true, nil
				}
			}
			return false, nil
		}
	}
	return func(env *Env) (bool, error) {
		v := p.ints(env.View)
		for _, n := range ns {
			if v == n {
				return true, nil
			}
		}
		return false, nil
	}
}

// interpreted is the fallback for nodes with no specialisation.
func interpreted(e Expr) CondFunc {
	return func(env *Env) (bool, error) { return EvalCond(e, env) }
}

// propAndLit matches a (property, literal) operand pair in either order.
func propAndLit(l, r Expr) (p lowered, lit Value, propLeft, ok bool) {
	if prop, isProp := l.(Prop); isProp {
		if x, isLit := r.(Lit); isLit {
			p, ok = lowerProp(prop.Name)
			return p, x.Value, true, ok
		}
	}
	if prop, isProp := r.(Prop); isProp {
		if x, isLit := l.(Lit); isLit {
			p, ok = lowerProp(prop.Name)
			return p, x.Value, false, ok
		}
	}
	return p, nil, false, false
}

// propKind is the domain a lowered property reads into.
type propKind uint8

const (
	// propInt: int64 values, as Prop.Eval returns them.
	propInt propKind = iota
	// propStr: strings read without allocating.
	propStr
	// propEnum: an enum's code, -1 when absent (""); codes maps names.
	propEnum
	// propIPv4: nw_src/nw_dst as a uint32, -1 when wildcarded ("").
	propIPv4
	// propMAC: dl_src/dl_dst as a 48-bit integer, -1 when wildcarded ("").
	propMAC
)

// lowered is a property compiled to a frame reader: ints for every kind
// but propStr, strs for propStr. Readers assume a view with no decoded Msg.
type lowered struct {
	kind  propKind
	ints  func(*MessageView) int64
	strs  func(*MessageView) string
	codes map[string]int64
}

// key converts a literal into p's domain; ok is false when no value of
// the property can equal lit (equalValues never matches across kinds, and
// an address property only ever reads "" or a canonical address).
func (p lowered) key(lit Value) (n int64, s string, ok bool) {
	if p.kind == propInt {
		n, ok = asInt(lit)
		return n, "", ok
	}
	s, ok = lit.(string)
	if !ok || p.kind == propStr {
		return 0, s, ok
	}
	switch {
	case s == "":
		return -1, "", true
	case p.kind == propEnum:
		n, ok = p.codes[s]
		return n, "", ok
	case p.kind == propIPv4:
		ip, err := netaddr.ParseIPv4(s)
		return int64(ip.Uint32()), "", err == nil && ip.String() == s
	}
	mac, err := netaddr.ParseMAC(s)
	return mac48(mac), "", err == nil && mac.String() == s
}

func mac48(m netaddr.MAC) int64 {
	return int64(m[0])<<40 | int64(m[1])<<32 | int64(m[2])<<24 | int64(m[3])<<16 | int64(m[4])<<8 | int64(m[5])
}

// lowerProp returns the frame reader for property name, mirroring
// Prop.Eval's frame path (frameProp and payloadZero) value for value. A
// payload property reads through its openflow.Fields row, which is looked
// up here, once per rule.
func lowerProp(name string) (lowered, bool) {
	ints := func(f func(*MessageView) int64) (lowered, bool) { return lowered{kind: propInt, ints: f}, true }
	strs := func(f func(*MessageView) string) (lowered, bool) { return lowered{kind: propStr, strs: f}, true }
	switch name {
	case PropSource:
		return strs(func(v *MessageView) string { return string(v.Source) })
	case PropDestination:
		return strs(func(v *MessageView) string { return string(v.Destination) })
	case PropDirection:
		return strs(func(v *MessageView) string { return v.Direction.String() })
	case PropTimestamp:
		return ints(func(v *MessageView) int64 { return v.Timestamp.UnixNano() })
	case PropLength:
		return ints(func(v *MessageView) int64 { return int64(v.Length) })
	case PropID:
		return ints(func(v *MessageView) int64 { return int64(v.ID) })
	}
	fd, ok := openflow.FieldNamed(name)
	if !ok {
		return lowered{}, false
	}
	read := func(v *MessageView) int64 {
		if n, ok := v.frame.Field(fd); ok {
			return int64(n)
		}
		return -1
	}
	switch fd.Kind {
	case openflow.FieldIPv4:
		return lowered{kind: propIPv4, ints: read}, true
	case openflow.FieldMAC:
		return lowered{kind: propMAC, ints: read}, true
	case openflow.FieldEnum:
		if codes, ok := enumCodes[fd]; ok {
			return lowered{kind: propEnum, ints: read, codes: codes}, true
		}
		names := enumNames[fd]
		return strs(func(v *MessageView) string {
			n, ok := v.frame.Field(fd)
			switch {
			case !ok:
				return ""
			case n < uint64(len(names)):
				return names[n].(string)
			}
			return fd.Enum(n)
		})
	}
	return ints(read)
}
