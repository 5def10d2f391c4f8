package openflow

import (
	"encoding/binary"
	"slices"
)

// FieldKind says how the attack language reads a field's bytes.
type FieldKind uint8

// Field kinds.
const (
	// FieldUint reads as an unsigned integer.
	FieldUint FieldKind = iota
	// FieldIPv4 reads as a dotted-quad address.
	FieldIPv4
	// FieldMAC reads as a colon-separated hardware address.
	FieldMAC
	// FieldEnum reads as the name its Enum function gives the value.
	FieldEnum
)

// Field is one row of Fields: where a field the attack language can read
// sits in an OpenFlow 1.0 message, how to read it, and whether MODIFYFIELD
// may patch it in place. The typed codec (Marshal/Unmarshal) holds the
// same layout by hand and is the oracle every row is tested against.
type Field struct {
	// Name is the attack-language property, e.g. "msg.flowmod.idle_timeout".
	Name string
	// Types are the message types that carry the field; nil means all
	// (the header fields).
	Types []Type
	// Off and Width locate the big-endian field. Off counts from the start
	// of the message, header included, as the spec's struct offsets do.
	Off, Width int
	// Kind says how the value reads; Enum names the values of a FieldEnum.
	Kind FieldKind
	Enum func(uint64) string
	// Wildcard is the ofp_match wildcard bit under which the field reads
	// as absent. For nw_src and nw_dst it is the top bit of the 6-bit
	// mask count, set exactly when the prefix is /0.
	Wildcard uint32
	// Settable says MODIFYFIELD may set the field. Setting a match field
	// also clears its wildcard bit, so the value takes effect.
	Settable bool
	// Codec names the typed codec's struct field holding the same value:
	// on the message struct, or on Header for the header rows.
	Codec string

	// types holds a bit per message type that carries the field, and end
	// the least frame length that does; read reads the field from a
	// frame's bytes. init builds them from the columns above.
	types [4]uint64
	end   int
	read  func([]byte) (uint64, bool)
}

// matchTypes are the messages that carry an ofp_match at offset 8.
var matchTypes = []Type{TypeFlowMod, TypeFlowRemoved}

// Fields is the OpenFlow 1.0 payload field table.
var Fields = []Field{
	{Name: "msg.type", Off: 1, Width: 1, Kind: FieldEnum, Codec: "Type",
		Enum: func(v uint64) string { return Type(v).String() }},
	{Name: "msg.xid", Off: 4, Width: 4, Codec: "Xid"},

	{Name: "msg.flowmod.command", Types: []Type{TypeFlowMod}, Off: 56, Width: 2, Kind: FieldEnum, Codec: "Command",
		Enum: func(v uint64) string { return FlowModCommand(v).String() }},
	{Name: "msg.flowmod.idle_timeout", Types: []Type{TypeFlowMod}, Off: 58, Width: 2, Settable: true, Codec: "IdleTimeout"},
	{Name: "msg.flowmod.hard_timeout", Types: []Type{TypeFlowMod}, Off: 60, Width: 2, Settable: true, Codec: "HardTimeout"},
	{Name: "msg.flowmod.priority", Types: []Type{TypeFlowMod}, Off: 62, Width: 2, Settable: true, Codec: "Priority"},
	{Name: "msg.flowmod.buffer_id", Types: []Type{TypeFlowMod}, Off: 64, Width: 4, Settable: true, Codec: "BufferID"},

	{Name: "msg.match.in_port", Types: matchTypes, Off: 12, Width: 2, Wildcard: WildcardInPort, Settable: true, Codec: "Match.InPort"},
	{Name: "msg.match.dl_src", Types: matchTypes, Off: 14, Width: 6, Kind: FieldMAC, Wildcard: WildcardDLSrc, Codec: "Match.DLSrc"},
	{Name: "msg.match.dl_dst", Types: matchTypes, Off: 20, Width: 6, Kind: FieldMAC, Wildcard: WildcardDLDst, Codec: "Match.DLDst"},
	{Name: "msg.match.dl_type", Types: matchTypes, Off: 30, Width: 2, Wildcard: WildcardDLType, Codec: "Match.DLType"},
	{Name: "msg.match.nw_proto", Types: matchTypes, Off: 33, Width: 1, Wildcard: WildcardNWProto, Codec: "Match.NWProto"},
	{Name: "msg.match.nw_src", Types: matchTypes, Off: 36, Width: 4, Kind: FieldIPv4, Wildcard: WildcardNWSrcAll, Codec: "Match.NWSrc"},
	{Name: "msg.match.nw_dst", Types: matchTypes, Off: 40, Width: 4, Kind: FieldIPv4, Wildcard: WildcardNWDstAll, Codec: "Match.NWDst"},
	{Name: "msg.match.tp_src", Types: matchTypes, Off: 44, Width: 2, Wildcard: WildcardTPSrc, Codec: "Match.TPSrc"},
	{Name: "msg.match.tp_dst", Types: matchTypes, Off: 46, Width: 2, Wildcard: WildcardTPDst, Codec: "Match.TPDst"},

	{Name: "msg.packetin.in_port", Types: []Type{TypePacketIn}, Off: 14, Width: 2, Settable: true, Codec: "InPort"},
	{Name: "msg.packetin.buffer_id", Types: []Type{TypePacketIn}, Off: 8, Width: 4, Codec: "BufferID"},
	{Name: "msg.packetin.reason", Types: []Type{TypePacketIn}, Off: 16, Width: 1, Kind: FieldEnum, Codec: "Reason",
		Enum: func(v uint64) string { return PacketInReason(v).String() }},

	{Name: "msg.packetout.in_port", Types: []Type{TypePacketOut}, Off: 12, Width: 2, Settable: true, Codec: "InPort"},
	{Name: "msg.packetout.buffer_id", Types: []Type{TypePacketOut}, Off: 8, Width: 4, Codec: "BufferID"},
}

var fieldsByName = make(map[string]*Field, len(Fields))

func init() {
	for i := range Fields {
		fd := &Fields[i]
		fd.end = max(HeaderLen, fd.Off+fd.Width)
		for t := range 256 {
			if fd.Types == nil || slices.Contains(fd.Types, Type(t)) {
				fd.types[t/64] |= 1 << (t % 64)
			}
		}
		fd.read = fd.reader()
		fieldsByName[fd.Name] = fd
	}
}

// FieldNamed returns the row of Fields for an attack-language property.
func FieldNamed(name string) (*Field, bool) {
	fd, ok := fieldsByName[name]
	return fd, ok
}

// reader builds fd's read function from its offset and width, so that a
// read checks the frame and loads the bytes with no switch on the row.
func (fd *Field) reader() func([]byte) (uint64, bool) {
	off := fd.Off
	switch fd.Width {
	case 1:
		return func(b []byte) (uint64, bool) {
			if !fd.present(b) {
				return 0, false
			}
			return uint64(b[off]), true
		}
	case 2:
		return func(b []byte) (uint64, bool) {
			if !fd.present(b) {
				return 0, false
			}
			return uint64(binary.BigEndian.Uint16(b[off:])), true
		}
	case 4:
		return func(b []byte) (uint64, bool) {
			if !fd.present(b) {
				return 0, false
			}
			return uint64(binary.BigEndian.Uint32(b[off:])), true
		}
	case 6:
		return func(b []byte) (uint64, bool) {
			if !fd.present(b) {
				return 0, false
			}
			return uint64(binary.BigEndian.Uint16(b[off:]))<<32 | uint64(binary.BigEndian.Uint32(b[off+2:])), true
		}
	}
	panic("openflow: field width must be 1, 2, 4 or 6")
}

// carried reports whether the frame's bytes b hold fd: a message of one of
// fd's types, long enough to reach past the field.
func (fd *Field) carried(b []byte) bool {
	return len(b) >= fd.end && fd.types[b[1]/64]&(1<<(b[1]%64)) != 0
}

// present reports whether b carries fd and its match does not wildcard it.
func (fd *Field) present(b []byte) bool {
	return fd.carried(b) && (fd.Wildcard == 0 || binary.BigEndian.Uint32(b[HeaderLen:])&fd.Wildcard == 0)
}

// Field reads fd from the frame. It reports false when the frame does not
// carry the field, or when the match wildcards it.
func (f Frame) Field(fd *Field) (uint64, bool) { return fd.read(f.data) }

// SetField writes the low bytes of v into fd in place, in the buffer the
// frame views, and clears fd's wildcard bit. It reports false, writing
// nothing, when fd is not Settable or the frame does not carry it.
func (f Frame) SetField(fd *Field, v uint64) bool {
	b := f.data
	if !fd.Settable || !fd.carried(b) {
		return false
	}
	if fd.Wildcard != 0 {
		w := b[HeaderLen : HeaderLen+4]
		binary.BigEndian.PutUint32(w, binary.BigEndian.Uint32(w)&^fd.Wildcard)
	}
	for i := fd.Off + fd.Width - 1; i >= fd.Off; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return true
}
