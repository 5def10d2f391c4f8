package openflow

import (
	"encoding/binary"
	"fmt"
)

// Frame is a lazy, zero-copy view over one framed OpenFlow message. It
// wraps the raw wire bytes and reads header fields and the rows of Fields
// at their fixed offsets without materializing a typed Message, so the
// injector's hot path can evaluate rule conditionals against forwarded
// traffic and still pass the original bytes through verbatim. SetField
// patches a row in place; Materialize is the escape hatch back to the
// typed codec.
//
// A Frame aliases the buffer it was created over and is valid only as long
// as the caller owns those bytes; see the pooling ownership rules in
// DESIGN.md. The zero Frame is invalid and every accessor on it reports
// failure.
type Frame struct {
	data []byte
}

// NewFrame validates the header framing of data (version, known type,
// plausible length) and returns a view over it. The view spans exactly the
// framed message: trailing bytes beyond the header's length field are
// excluded, mirroring Unmarshal. Body contents are not validated — that is
// exactly the laziness the type exists for.
func NewFrame(data []byte) (Frame, error) {
	if len(data) < HeaderLen {
		return Frame{}, ErrTruncated
	}
	if data[0] != Version {
		return Frame{}, fmt.Errorf("version %d: %w", data[0], ErrBadVersion)
	}
	length := int(binary.BigEndian.Uint16(data[2:4]))
	if length < HeaderLen {
		return Frame{}, ErrBadLength
	}
	if length > len(data) {
		return Frame{}, ErrTruncated
	}
	if typeName[data[1]] == "" {
		return Frame{}, fmt.Errorf("type %d: %w", data[1], ErrUnknownType)
	}
	return Frame{data: data[:length]}, nil
}

// Valid reports whether the frame views any bytes.
func (f Frame) Valid() bool { return len(f.data) >= HeaderLen }

// Bytes returns the underlying wire bytes (header included). The slice
// aliases the frame's buffer; callers must not retain it past the buffer's
// ownership window.
func (f Frame) Bytes() []byte { return f.data }

// Version returns the header version byte.
func (f Frame) Version() uint8 {
	if !f.Valid() {
		return 0
	}
	return f.data[0]
}

// Type returns the message type from the header.
func (f Frame) Type() Type {
	if !f.Valid() {
		return 0
	}
	return Type(f.data[1])
}

// Len returns the framed length (== len(Bytes())).
func (f Frame) Len() int { return len(f.data) }

// Xid returns the transaction id from the header.
func (f Frame) Xid() uint32 {
	if !f.Valid() {
		return 0
	}
	return binary.BigEndian.Uint32(f.data[4:8])
}

// Materialize decodes the frame into the typed message structs — the
// escape hatch for code that needs to mutate or deeply inspect a message.
// It costs a full Unmarshal (and its allocations); the returned Message
// never aliases the frame's buffer.
func (f Frame) Materialize() (Header, Message, error) {
	return Unmarshal(f.data)
}
