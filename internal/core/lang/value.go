// Package lang implements the ATTAIN attack language (paper §V): message
// properties, propositional conditionals over them, deque storage Δ,
// attacker actions α, rules φ = (n, γ, λ, α), attack states Σ, and the
// attack state graph Σ_G. The package defines the language's data model and
// static validation; the inject package interprets it at runtime.
package lang

import (
	"fmt"
	"time"

	"attain/internal/core/model"
	"attain/internal/openflow"
)

// Value is a runtime value in the attack language: bool, int64, string, or
// a captured message (*Captured) stored in a deque.
type Value interface{}

// Captured is a control-plane message stored in a deque for later replay.
type Captured struct {
	// Raw is the full framed message bytes.
	Raw []byte
	// View is the message view captured at store time.
	View MessageView
}

// Direction says which way a message is travelling on its connection.
type Direction int

const (
	// SwitchToController flows from the switch (client) to the
	// controller (server).
	SwitchToController Direction = iota + 1
	// ControllerToSwitch flows from the controller to the switch.
	ControllerToSwitch
)

// String returns "s2c" or "c2s".
func (d Direction) String() string {
	switch d {
	case SwitchToController:
		return "s2c"
	case ControllerToSwitch:
		return "c2s"
	default:
		return "?"
	}
}

// MessageView is the property view of one in-flight control-plane message
// (§V-A). Metadata fields are always populated by the injector; payload
// access is granted only when the attack holds READMESSAGE on the
// connection.
//
// Payload access comes in two forms. The injector's hot path attaches a
// lazy openflow.Frame (SetFrame) wrapping the raw wire bytes, and property
// reads evaluate against it without decoding; Materialize is the escape
// hatch that decodes the typed structs on demand. Code constructing views
// directly (tests, monitors) may instead populate Header and Msg — when
// Msg is non-nil it takes precedence over the frame.
type MessageView struct {
	// Conn is the control-plane connection the message traverses.
	Conn model.Conn
	// Direction distinguishes the two flows on the connection.
	Direction Direction
	// Source and Destination are derived from Conn and Direction
	// (MESSAGESOURCE, MESSAGEDESTINATION ∈ C ∪ S).
	Source      model.NodeID
	Destination model.NodeID
	// Timestamp is the message arrival time (MESSAGETIMESTAMP).
	Timestamp time.Time
	// Length is the payload length in bytes (MESSAGELENGTH).
	Length int
	// ID is the injector-assigned unique id (MESSAGEID).
	ID uint64
	// Header is the decoded OpenFlow header (payload; READMESSAGE only).
	Header openflow.Header
	// Msg is the decoded OpenFlow body (payload; READMESSAGE only), nil
	// when the payload is opaque.
	Msg openflow.Message

	// frame is the lazy zero-copy payload view; hasFrame distinguishes it
	// from the zero value. It aliases the in-flight message buffer and is
	// only valid while the injector owns those bytes.
	frame    openflow.Frame
	hasFrame bool
	// materialized records that Materialize decoded the payload, for the
	// injector's passthrough-vs-materialized accounting.
	materialized bool
}

// SetFrame attaches a lazy payload view. The injector calls this instead
// of decoding when READMESSAGE is granted.
func (v *MessageView) SetFrame(f openflow.Frame) {
	v.frame = f
	v.hasFrame = true
}

// ClearFrame detaches the payload view (used when a view outlives the
// buffer its frame aliases, e.g. a captured message).
func (v *MessageView) ClearFrame() {
	v.frame = openflow.Frame{}
	v.hasFrame = false
}

// Frame returns the lazy payload view, if one is attached.
func (v *MessageView) Frame() (openflow.Frame, bool) {
	return v.frame, v.hasFrame
}

// Materialize decodes the payload into Header and Msg if they are not
// already populated, returning whether typed payload access is available.
// The decode happens at most once per view.
func (v *MessageView) Materialize() bool {
	if v.Msg != nil {
		return true
	}
	if !v.hasFrame {
		return false
	}
	hdr, msg, err := v.frame.Materialize()
	if err != nil {
		return false
	}
	v.Header = hdr
	v.Msg = msg
	v.materialized = true
	return true
}

// Materialized reports whether Materialize decoded this view's payload.
func (v *MessageView) Materialized() bool { return v.materialized }

// TypeName returns the message type name for logs and counters: the
// decoded or frame-level type when payload access is available, "OPAQUE"
// otherwise.
func (v *MessageView) TypeName() string {
	if v.Msg != nil {
		return v.Msg.Type().String()
	}
	if v.hasFrame {
		return v.frame.Type().String()
	}
	return "OPAQUE"
}

// equalValues compares two language values. Numeric comparison coerces
// int-like values; everything else compares by identity of kind and value.
func equalValues(a, b Value) bool {
	ai, aok := asInt(a)
	bi, bok := asInt(b)
	if aok && bok {
		return ai == bi
	}
	as, aok2 := a.(string)
	bs, bok2 := b.(string)
	if aok2 && bok2 {
		return as == bs
	}
	ab, aok3 := a.(bool)
	bb, bok3 := b.(bool)
	if aok3 && bok3 {
		return ab == bb
	}
	return false
}

// asInt coerces the int-like language values to int64.
func asInt(v Value) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case int:
		return int64(n), true
	case uint16:
		return int64(n), true
	case uint32:
		return int64(n), true
	case uint64:
		return int64(n), true
	default:
		return 0, false
	}
}

// formatValue renders a value for diagnostics.
func formatValue(v Value) string {
	switch x := v.(type) {
	case string:
		return fmt.Sprintf("%q", x)
	case *Captured:
		return fmt.Sprintf("<msg %d>", x.View.ID)
	default:
		return fmt.Sprintf("%v", x)
	}
}
