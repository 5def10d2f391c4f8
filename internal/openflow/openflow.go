// Package openflow implements the OpenFlow 1.0 wire protocol (OpenFlow
// Switch Specification 1.0.0, December 2009).
//
// It provides encoding and decoding for every OpenFlow 1.0 message type,
// the flow match structure with wildcard semantics, the action list, and
// framing helpers for reading and writing messages over a stream. The
// package plays the role of the Loxi library in the ATTAIN paper: both the
// simulated switches and controllers and the attack injector's protocol
// message encoder/decoder are built on it.
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the OpenFlow protocol version implemented by this package.
const Version uint8 = 0x01

// HeaderLen is the length in bytes of the ofp_header that prefixes every
// message.
const HeaderLen = 8

// MaxMessageLen bounds accepted message lengths to guard against corrupt or
// hostile length fields.
const MaxMessageLen = 1 << 16

// NoBuffer is the buffer_id value meaning "packet not buffered".
const NoBuffer uint32 = 0xffffffff

// Type identifies an OpenFlow 1.0 message type (ofp_type).
type Type uint8

// OpenFlow 1.0 message types.
const (
	TypeHello                 Type = 0
	TypeError                 Type = 1
	TypeEchoRequest           Type = 2
	TypeEchoReply             Type = 3
	TypeVendor                Type = 4
	TypeFeaturesRequest       Type = 5
	TypeFeaturesReply         Type = 6
	TypeGetConfigRequest      Type = 7
	TypeGetConfigReply        Type = 8
	TypeSetConfig             Type = 9
	TypePacketIn              Type = 10
	TypeFlowRemoved           Type = 11
	TypePortStatus            Type = 12
	TypePacketOut             Type = 13
	TypeFlowMod               Type = 14
	TypePortMod               Type = 15
	TypeStatsRequest          Type = 16
	TypeStatsReply            Type = 17
	TypeBarrierRequest        Type = 18
	TypeBarrierReply          Type = 19
	TypeQueueGetConfigRequest Type = 20
	TypeQueueGetConfigReply   Type = 21
)

// typeName names each OF 1.0 message type by its type byte; "" marks a
// byte that names no type. NewFrame's type check, Type.String and
// ParseType read it.
var typeName = [256]string{
	TypeHello:                 "HELLO",
	TypeError:                 "ERROR",
	TypeEchoRequest:           "ECHO_REQUEST",
	TypeEchoReply:             "ECHO_REPLY",
	TypeVendor:                "VENDOR",
	TypeFeaturesRequest:       "FEATURES_REQUEST",
	TypeFeaturesReply:         "FEATURES_REPLY",
	TypeGetConfigRequest:      "GET_CONFIG_REQUEST",
	TypeGetConfigReply:        "GET_CONFIG_REPLY",
	TypeSetConfig:             "SET_CONFIG",
	TypePacketIn:              "PACKET_IN",
	TypeFlowRemoved:           "FLOW_REMOVED",
	TypePortStatus:            "PORT_STATUS",
	TypePacketOut:             "PACKET_OUT",
	TypeFlowMod:               "FLOW_MOD",
	TypePortMod:               "PORT_MOD",
	TypeStatsRequest:          "STATS_REQUEST",
	TypeStatsReply:            "STATS_REPLY",
	TypeBarrierRequest:        "BARRIER_REQUEST",
	TypeBarrierReply:          "BARRIER_REPLY",
	TypeQueueGetConfigRequest: "QUEUE_GET_CONFIG_REQUEST",
	TypeQueueGetConfigReply:   "QUEUE_GET_CONFIG_REPLY",
}

// String returns the spec name of the message type, e.g. "FLOW_MOD".
func (t Type) String() string {
	if s := typeName[t]; s != "" {
		return s
	}
	return fmt.Sprintf("UNKNOWN_TYPE(%d)", uint8(t))
}

// ParseType returns the Type named by the spec string s (e.g. "FLOW_MOD").
func ParseType(s string) (Type, error) {
	for t, name := range typeName {
		if name != "" && name == s {
			return Type(t), nil
		}
	}
	return 0, fmt.Errorf("openflow: unknown message type %q", s)
}

// Header is the ofp_header that prefixes every OpenFlow message.
type Header struct {
	Version uint8
	Type    Type
	Length  uint16
	Xid     uint32
}

// Sentinel errors returned by decoding functions.
var (
	ErrTruncated   = errors.New("openflow: truncated message")
	ErrBadVersion  = errors.New("openflow: unsupported protocol version")
	ErrBadLength   = errors.New("openflow: invalid length field")
	ErrUnknownType = errors.New("openflow: unknown message type")
)

// Message is the decoded body of an OpenFlow message. The transaction id
// lives in the frame header and is supplied separately at marshal time.
type Message interface {
	// Type returns the ofp_type of the message.
	Type() Type
	// marshalBody appends the wire encoding of the body (everything after
	// the 8-byte header) to b and returns the extended slice.
	marshalBody(b []byte) ([]byte, error)
	// unmarshalBody parses the wire encoding of the body.
	unmarshalBody(data []byte) error
}

// Marshal encodes msg into a complete framed OpenFlow message with the given
// transaction id.
func Marshal(xid uint32, msg Message) ([]byte, error) {
	buf, err := AppendMessage(make([]byte, 0, HeaderLen+64), xid, msg)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// DecodeHeader parses the 8-byte header at the start of data.
func DecodeHeader(data []byte) (Header, error) {
	if len(data) < HeaderLen {
		return Header{}, ErrTruncated
	}
	h := Header{
		Version: data[0],
		Type:    Type(data[1]),
		Length:  binary.BigEndian.Uint16(data[2:4]),
		Xid:     binary.BigEndian.Uint32(data[4:8]),
	}
	if int(h.Length) < HeaderLen {
		return h, ErrBadLength
	}
	return h, nil
}

// Unmarshal decodes one complete framed message. It returns the parsed
// header and the typed body.
func Unmarshal(data []byte) (Header, Message, error) {
	h, err := DecodeHeader(data)
	if err != nil {
		return h, nil, err
	}
	if h.Version != Version {
		return h, nil, fmt.Errorf("version %d: %w", h.Version, ErrBadVersion)
	}
	if int(h.Length) > len(data) {
		return h, nil, ErrTruncated
	}
	msg, err := newMessage(h.Type)
	if err != nil {
		return h, nil, err
	}
	if err := msg.unmarshalBody(data[HeaderLen:h.Length]); err != nil {
		return h, nil, fmt.Errorf("unmarshal %s: %w", h.Type, err)
	}
	return h, msg, nil
}

// newMessage returns a zero value of the concrete message type for t.
func newMessage(t Type) (Message, error) {
	switch t {
	case TypeHello:
		return &Hello{}, nil
	case TypeError:
		return &ErrorMsg{}, nil
	case TypeEchoRequest:
		return &EchoRequest{}, nil
	case TypeEchoReply:
		return &EchoReply{}, nil
	case TypeVendor:
		return &Vendor{}, nil
	case TypeFeaturesRequest:
		return &FeaturesRequest{}, nil
	case TypeFeaturesReply:
		return &FeaturesReply{}, nil
	case TypeGetConfigRequest:
		return &GetConfigRequest{}, nil
	case TypeGetConfigReply:
		return &GetConfigReply{}, nil
	case TypeSetConfig:
		return &SetConfig{}, nil
	case TypePacketIn:
		return &PacketIn{}, nil
	case TypeFlowRemoved:
		return &FlowRemoved{}, nil
	case TypePortStatus:
		return &PortStatus{}, nil
	case TypePacketOut:
		return &PacketOut{}, nil
	case TypeFlowMod:
		return &FlowMod{}, nil
	case TypePortMod:
		return &PortMod{}, nil
	case TypeStatsRequest:
		return &StatsRequest{}, nil
	case TypeStatsReply:
		return &StatsReply{}, nil
	case TypeBarrierRequest:
		return &BarrierRequest{}, nil
	case TypeBarrierReply:
		return &BarrierReply{}, nil
	case TypeQueueGetConfigRequest:
		return &QueueGetConfigRequest{}, nil
	case TypeQueueGetConfigReply:
		return &QueueGetConfigReply{}, nil
	default:
		return nil, fmt.Errorf("type %d: %w", uint8(t), ErrUnknownType)
	}
}

// ReadRaw reads exactly one framed OpenFlow message from r and returns the
// raw bytes (header included). It validates only the header framing, not the
// body, so it is usable even when the payload must be treated as opaque
// (e.g. the injector without the READMESSAGE capability).
func ReadRaw(r io.Reader) ([]byte, error) {
	buf, err := ReadRawInto(r, nil)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadMessage reads and decodes one message from r.
func ReadMessage(r io.Reader) (Header, Message, error) {
	raw, err := ReadRaw(r)
	if err != nil {
		return Header{}, nil, err
	}
	return Unmarshal(raw)
}

// WriteMessage marshals msg with the given xid and writes it to w.
func WriteMessage(w io.Writer, xid uint32, msg Message) error {
	buf, err := Marshal(xid, msg)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
