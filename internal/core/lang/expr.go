package lang

import (
	"fmt"
	"strings"

	"attain/internal/core/model"
	"attain/internal/netaddr"
	"attain/internal/openflow"
)

// Env is the evaluation environment of a conditional expression: the
// message under consideration, the attack's storage, and the system model
// for resolving component names.
type Env struct {
	View    *MessageView
	Storage *Storage
	System  *model.System
}

// Expr is a node of a conditional expression λ (§V-B). Expressions evaluate
// to language values; the rule engine requires the top level to produce a
// bool.
type Expr interface {
	// Eval computes the expression's value.
	Eval(env *Env) (Value, error)
	// RequiredCaps returns the attacker capabilities needed to evaluate
	// the expression (metadata vs payload property access).
	RequiredCaps() model.CapabilitySet
	// String renders the expression in the textual DSL syntax.
	String() string
}

// ---- Logical connectives ----

// And is the conjunction of its operands.
type And struct{ Exprs []Expr }

// Or is the disjunction of its operands.
type Or struct{ Exprs []Expr }

// Not negates its operand.
type Not struct{ Expr Expr }

// Eval implements Expr with short-circuit evaluation.
func (e And) Eval(env *Env) (Value, error) {
	for _, sub := range e.Exprs {
		v, err := sub.Eval(env)
		if err != nil {
			return nil, err
		}
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("lang: AND operand %s is not boolean", sub)
		}
		if !b {
			return falseValue, nil
		}
	}
	return trueValue, nil
}

// Eval implements Expr with short-circuit evaluation.
func (e Or) Eval(env *Env) (Value, error) {
	for _, sub := range e.Exprs {
		v, err := sub.Eval(env)
		if err != nil {
			return nil, err
		}
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("lang: OR operand %s is not boolean", sub)
		}
		if b {
			return trueValue, nil
		}
	}
	return falseValue, nil
}

// Eval implements Expr.
func (e Not) Eval(env *Env) (Value, error) {
	v, err := e.Expr.Eval(env)
	if err != nil {
		return nil, err
	}
	b, ok := v.(bool)
	if !ok {
		return nil, fmt.Errorf("lang: NOT operand %s is not boolean", e.Expr)
	}
	return boolValue(!b), nil
}

func unionCaps(exprs []Expr) model.CapabilitySet {
	var caps model.CapabilitySet
	for _, e := range exprs {
		caps |= e.RequiredCaps()
	}
	return caps
}

// RequiredCaps implements Expr.
func (e And) RequiredCaps() model.CapabilitySet { return unionCaps(e.Exprs) }

// RequiredCaps implements Expr.
func (e Or) RequiredCaps() model.CapabilitySet { return unionCaps(e.Exprs) }

// RequiredCaps implements Expr.
func (e Not) RequiredCaps() model.CapabilitySet { return e.Expr.RequiredCaps() }

func joinExprs(exprs []Expr, sep string) string {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, " "+sep+" ") + ")"
}

func (e And) String() string { return joinExprs(e.Exprs, "and") }
func (e Or) String() string  { return joinExprs(e.Exprs, "or") }
func (e Not) String() string { return "(not " + e.Expr.String() + ")" }

// ---- Comparisons ----

// CmpOp is a comparison operator. The paper defines Eq and In; the ordered
// operators are an extension used with counter deques.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Cmp compares two sub-expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (e Cmp) Eval(env *Env) (Value, error) {
	l, err := e.L.Eval(env)
	if err != nil {
		return nil, err
	}
	r, err := e.R.Eval(env)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case OpEq:
		return boolValue(equalValues(l, r)), nil
	case OpNe:
		return boolValue(!equalValues(l, r)), nil
	}
	li, lok := asInt(l)
	ri, rok := asInt(r)
	if !lok || !rok {
		return nil, fmt.Errorf("lang: ordered comparison %s needs integers, got %s and %s",
			e.Op, formatValue(l), formatValue(r))
	}
	switch e.Op {
	case OpLt:
		return boolValue(li < ri), nil
	case OpLe:
		return boolValue(li <= ri), nil
	case OpGt:
		return boolValue(li > ri), nil
	case OpGe:
		return boolValue(li >= ri), nil
	default:
		return nil, fmt.Errorf("lang: unknown comparison operator %d", e.Op)
	}
}

// RequiredCaps implements Expr.
func (e Cmp) RequiredCaps() model.CapabilitySet {
	return e.L.RequiredCaps() | e.R.RequiredCaps()
}

func (e Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// In tests set membership: L ∈ {values...}.
type In struct {
	L   Expr
	Set []Expr
}

// Eval implements Expr.
func (e In) Eval(env *Env) (Value, error) {
	l, err := e.L.Eval(env)
	if err != nil {
		return nil, err
	}
	for _, sub := range e.Set {
		v, err := sub.Eval(env)
		if err != nil {
			return nil, err
		}
		if equalValues(l, v) {
			return trueValue, nil
		}
	}
	return falseValue, nil
}

// RequiredCaps implements Expr.
func (e In) RequiredCaps() model.CapabilitySet {
	return e.L.RequiredCaps() | unionCaps(e.Set)
}

func (e In) String() string {
	parts := make([]string, len(e.Set))
	for i, s := range e.Set {
		parts[i] = s.String()
	}
	return fmt.Sprintf("(%s in {%s})", e.L, strings.Join(parts, ", "))
}

// ---- Arithmetic (extension, for counter deques) ----

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	OpAdd ArithOp = iota + 1
	OpSub
)

func (op ArithOp) String() string {
	if op == OpAdd {
		return "+"
	}
	return "-"
}

// Arith combines two integer sub-expressions.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (e Arith) Eval(env *Env) (Value, error) {
	l, err := e.L.Eval(env)
	if err != nil {
		return nil, err
	}
	r, err := e.R.Eval(env)
	if err != nil {
		return nil, err
	}
	li, lok := asInt(l)
	ri, rok := asInt(r)
	if !lok || !rok {
		return nil, fmt.Errorf("lang: arithmetic needs integers, got %s and %s", formatValue(l), formatValue(r))
	}
	if e.Op == OpAdd {
		return li + ri, nil
	}
	return li - ri, nil
}

// RequiredCaps implements Expr.
func (e Arith) RequiredCaps() model.CapabilitySet {
	return e.L.RequiredCaps() | e.R.RequiredCaps()
}

func (e Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// ---- Literals ----

// Lit is a literal value.
type Lit struct{ Value Value }

// Eval implements Expr.
func (e Lit) Eval(*Env) (Value, error) { return e.Value, nil }

// RequiredCaps implements Expr.
func (Lit) RequiredCaps() model.CapabilitySet { return model.NoCapabilities }

func (e Lit) String() string { return formatValue(e.Value) }

// ---- Message properties ----

// Property names understood by Prop. Metadata properties require
// READMESSAGEMETADATA; payload properties require READMESSAGE and are the
// rows of openflow.Fields, which say where each one sits on the wire. The
// constants name the properties Go code refers to.
const (
	PropSource      = "msg.source"
	PropDestination = "msg.destination"
	PropTimestamp   = "msg.timestamp"
	PropLength      = "msg.length"
	PropID          = "msg.id"
	PropDirection   = "msg.direction"

	PropType         = "msg.type"
	PropXid          = "msg.xid"
	PropFMCommand    = "msg.flowmod.command"
	PropFMPriority   = "msg.flowmod.priority"
	PropFMIdle       = "msg.flowmod.idle_timeout"
	PropFMHard       = "msg.flowmod.hard_timeout"
	PropFMBufferID   = "msg.flowmod.buffer_id"
	PropMatchInPort  = "msg.match.in_port"
	PropMatchDLSrc   = "msg.match.dl_src"
	PropMatchDLDst   = "msg.match.dl_dst"
	PropMatchDLType  = "msg.match.dl_type"
	PropMatchNWProto = "msg.match.nw_proto"
	PropMatchNWSrc   = "msg.match.nw_src"
	PropMatchNWDst   = "msg.match.nw_dst"
	PropMatchTPSrc   = "msg.match.tp_src"
	PropMatchTPDst   = "msg.match.tp_dst"
	PropPIInPort     = "msg.packetin.in_port"
	PropPIBufferID   = "msg.packetin.buffer_id"
	PropPIReason     = "msg.packetin.reason"
	PropPOInPort     = "msg.packetout.in_port"
	PropPOBufferID   = "msg.packetout.buffer_id"
)

// metadataProps do not require payload access.
var metadataProps = map[string]bool{
	PropSource: true, PropDestination: true, PropTimestamp: true,
	PropLength: true, PropID: true, PropDirection: true,
}

// knownProps lists every property for validation: the metadata properties
// and one per openflow.Fields row.
var knownProps = func() map[string]bool {
	known := make(map[string]bool, len(metadataProps)+len(openflow.Fields))
	for name := range metadataProps {
		known[name] = true
	}
	for _, fd := range openflow.Fields {
		known[fd.Name] = true
	}
	return known
}()

// KnownProperty reports whether name is a recognized message property.
func KnownProperty(name string) bool { return knownProps[name] }

// Prop reads a message property (§V-A). Payload properties on an
// undecodable message evaluate to a mismatch-friendly zero value rather
// than erroring, because an attack without READMESSAGE simply cannot see
// them.
type Prop struct{ Name string }

// Eval implements Expr. Payload properties read from the decoded Msg when
// one is populated (test-built views, materialized messages) and otherwise
// from the lazy frame view, so conditional evaluation on the injector's
// hot path never decodes a message.
func (e Prop) Eval(env *Env) (Value, error) {
	v := env.View
	if v == nil {
		return nil, fmt.Errorf("lang: no message in scope for %s", e.Name)
	}
	switch e.Name {
	case PropSource:
		return string(v.Source), nil
	case PropDestination:
		return string(v.Destination), nil
	case PropTimestamp:
		return v.Timestamp.UnixNano(), nil
	case PropLength:
		return int64(v.Length), nil
	case PropID:
		return int64(v.ID), nil
	case PropDirection:
		return directionValue(v.Direction), nil
	}
	// Payload properties.
	if v.Msg != nil {
		return structProp(e.Name, v), nil
	}
	if f, ok := v.Frame(); ok {
		return frameProp(e.Name, f), nil
	}
	return payloadZero(e.Name), nil
}

// structProp reads a payload property from a decoded message. It and
// matchProp are written against the typed codec by hand, and are the
// oracle the openflow.Fields rows are tested against.
func structProp(name string, v *MessageView) Value {
	switch name {
	case PropType:
		return typeValue(v.Msg.Type())
	case PropXid:
		return int64(v.Header.Xid)
	}
	switch m := v.Msg.(type) {
	case *openflow.FlowMod:
		switch name {
		case PropFMCommand:
			return commandValue(m.Command)
		case PropFMPriority:
			return int64(m.Priority)
		case PropFMIdle:
			return int64(m.IdleTimeout)
		case PropFMHard:
			return int64(m.HardTimeout)
		case PropFMBufferID:
			return int64(m.BufferID)
		}
		if val, ok := matchProp(name, m.Match); ok {
			return val
		}
	case *openflow.FlowRemoved:
		if val, ok := matchProp(name, m.Match); ok {
			return val
		}
	case *openflow.PacketIn:
		switch name {
		case PropPIInPort:
			return int64(m.InPort)
		case PropPIBufferID:
			return int64(m.BufferID)
		case PropPIReason:
			return reasonValue(m.Reason)
		}
	case *openflow.PacketOut:
		switch name {
		case PropPOInPort:
			return int64(m.InPort)
		case PropPOBufferID:
			return int64(m.BufferID)
		}
	}
	return payloadZero(name)
}

// frameProp reads a payload property from the zero-copy frame view through
// its openflow.Fields row. A frame that does not carry the field (another
// type, a truncated body, a wildcarded match field) reads payloadZero, the
// inert value an undecodable message yields.
func frameProp(name string, f openflow.Frame) Value {
	if fd, ok := openflow.FieldNamed(name); ok {
		if n, ok := f.Field(fd); ok {
			return fieldValue(fd, n)
		}
	}
	return payloadZero(name)
}

// fieldValue renders a value read through row fd as the language sees it.
func fieldValue(fd *openflow.Field, n uint64) Value {
	switch fd.Kind {
	case openflow.FieldIPv4:
		return netaddr.IPv4FromUint32(uint32(n)).String()
	case openflow.FieldMAC:
		var mac netaddr.MAC
		for i := len(mac) - 1; i >= 0; i-- {
			mac[i] = byte(n)
			n >>= 8
		}
		return mac.String()
	case openflow.FieldEnum:
		return enumValue(fd, n)
	}
	return int64(n)
}

// matchProp extracts match-structure properties. Wildcarded fields read as
// zero values that will not spuriously equal concrete literals (addresses
// read as "" when wildcarded).
func matchProp(name string, m openflow.Match) (Value, bool) {
	switch name {
	case PropMatchInPort:
		if m.Wildcards&openflow.WildcardInPort != 0 {
			return minusOneValue, true
		}
		return int64(m.InPort), true
	case PropMatchDLSrc:
		if m.Wildcards&openflow.WildcardDLSrc != 0 {
			return emptyStringValue, true
		}
		return m.DLSrc.String(), true
	case PropMatchDLDst:
		if m.Wildcards&openflow.WildcardDLDst != 0 {
			return emptyStringValue, true
		}
		return m.DLDst.String(), true
	case PropMatchDLType:
		if m.Wildcards&openflow.WildcardDLType != 0 {
			return minusOneValue, true
		}
		return int64(m.DLType), true
	case PropMatchNWProto:
		if m.Wildcards&openflow.WildcardNWProto != 0 {
			return minusOneValue, true
		}
		return int64(m.NWProto), true
	case PropMatchNWSrc:
		if m.NWSrcMaskBits() == 0 {
			return emptyStringValue, true
		}
		return m.NWSrc.String(), true
	case PropMatchNWDst:
		if m.NWDstMaskBits() == 0 {
			return emptyStringValue, true
		}
		return m.NWDst.String(), true
	case PropMatchTPSrc:
		if m.Wildcards&openflow.WildcardTPSrc != 0 {
			return minusOneValue, true
		}
		return int64(m.TPSrc), true
	case PropMatchTPDst:
		if m.Wildcards&openflow.WildcardTPDst != 0 {
			return minusOneValue, true
		}
		return int64(m.TPDst), true
	default:
		return nil, false
	}
}

// payloadZero returns the inert value for a payload property that cannot
// be read: "" for string-typed properties, -1 for numeric ones (so that a
// comparison with any real value is false, not accidentally true).
func payloadZero(name string) Value {
	if fd, ok := openflow.FieldNamed(name); ok && fd.Kind != openflow.FieldUint {
		return emptyStringValue
	}
	return minusOneValue
}

// RequiredCaps implements Expr.
func (e Prop) RequiredCaps() model.CapabilitySet {
	if metadataProps[e.Name] {
		return model.Caps(model.CapReadMessageMetadata)
	}
	return model.Caps(model.CapReadMessage)
}

func (e Prop) String() string { return e.Name }

// ---- Storage reads ----

// DequeRead reads from a deque inside a conditional (§VIII-B's counter
// check EXAMINEFRONT(δ_counter) = n).
type DequeRead struct {
	Deque string
	// End selects EXAMINEEND instead of EXAMINEFRONT.
	End bool
}

// Eval implements Expr. Reading an empty deque yields int64(0) so counter
// checks work before the first increment.
func (e DequeRead) Eval(env *Env) (Value, error) {
	if env.Storage == nil {
		return nil, fmt.Errorf("lang: no storage in scope for deque %q", e.Deque)
	}
	d := env.Storage.Deque(e.Deque)
	var (
		v   Value
		err error
	)
	if e.End {
		v, err = d.ExamineEnd()
	} else {
		v, err = d.ExamineFront()
	}
	if err != nil {
		return int64(0), nil
	}
	return v, nil
}

// RequiredCaps implements Expr.
func (DequeRead) RequiredCaps() model.CapabilitySet { return model.NoCapabilities }

func (e DequeRead) String() string {
	if e.End {
		return fmt.Sprintf("examineEnd(%s)", e.Deque)
	}
	return fmt.Sprintf("examineFront(%s)", e.Deque)
}

// DequeTake removes and returns an element from a deque inside an action's
// value expression. It realizes the paper's counter idiom
// PREPEND(δ, SHIFT(δ)+1) (§VIII-B), where SHIFT both yields the old value
// and removes it. Taking from an empty deque yields int64(0). Because the
// executor is single-threaded, the side effect is totally ordered; using
// DequeTake inside a *conditional* is rejected at validation time via
// HasSideEffects.
type DequeTake struct {
	Deque string
	// End selects POP instead of SHIFT.
	End bool
}

// Eval implements Expr.
func (e DequeTake) Eval(env *Env) (Value, error) {
	if env.Storage == nil {
		return nil, fmt.Errorf("lang: no storage in scope for deque %q", e.Deque)
	}
	d := env.Storage.Deque(e.Deque)
	var (
		v   Value
		err error
	)
	if e.End {
		v, err = d.Pop()
	} else {
		v, err = d.Shift()
	}
	if err != nil {
		return int64(0), nil
	}
	return v, nil
}

// RequiredCaps implements Expr.
func (DequeTake) RequiredCaps() model.CapabilitySet { return model.NoCapabilities }

func (e DequeTake) String() string {
	if e.End {
		return fmt.Sprintf("pop(%s)", e.Deque)
	}
	return fmt.Sprintf("shift(%s)", e.Deque)
}

// HasSideEffects reports whether evaluating e mutates storage (contains a
// DequeTake). Conditionals must be side-effect free.
func HasSideEffects(e Expr) bool {
	return Any(e, func(x Expr) bool {
		_, ok := x.(DequeTake)
		return ok
	})
}

// Any reports whether pred holds for e or for any expression nested in it.
func Any(e Expr, pred func(Expr) bool) bool {
	if pred(e) {
		return true
	}
	var subs []Expr
	switch x := e.(type) {
	case And:
		subs = x.Exprs
	case Or:
		subs = x.Exprs
	case Not:
		subs = []Expr{x.Expr}
	case Cmp:
		subs = []Expr{x.L, x.R}
	case Arith:
		subs = []Expr{x.L, x.R}
	case In:
		subs = append([]Expr{x.L}, x.Set...)
	}
	for _, sub := range subs {
		if Any(sub, pred) {
			return true
		}
	}
	return false
}

// True is the always-true conditional (used by rules that act on every
// message).
var True Expr = Lit{Value: true}

// Compile-time interface checks.
var (
	_ Expr = And{}
	_ Expr = Or{}
	_ Expr = Not{}
	_ Expr = Cmp{}
	_ Expr = In{}
	_ Expr = Arith{}
	_ Expr = Lit{}
	_ Expr = Prop{}
	_ Expr = DequeRead{}
	_ Expr = DequeTake{}
)
