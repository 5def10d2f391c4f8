package openflow

import (
	"encoding/binary"
	"fmt"
	"strings"

	"attain/internal/netaddr"
)

// matchLen is the wire size of ofp_match.
const matchLen = 40

// Wildcard flags for ofp_match (ofp_flow_wildcards).
const (
	WildcardInPort    uint32 = 1 << 0
	WildcardDLVLAN    uint32 = 1 << 1
	WildcardDLSrc     uint32 = 1 << 2
	WildcardDLDst     uint32 = 1 << 3
	WildcardDLType    uint32 = 1 << 4
	WildcardNWProto   uint32 = 1 << 5
	WildcardTPSrc     uint32 = 1 << 6
	WildcardTPDst     uint32 = 1 << 7
	WildcardDLVLANPCP uint32 = 1 << 20
	WildcardNWTOS     uint32 = 1 << 21

	// nwSrcShift/nwDstShift position the 6-bit "number of wildcarded
	// low-order address bits" fields.
	nwSrcShift = 8
	nwDstShift = 14

	// WildcardNWSrcAll / WildcardNWDstAll wildcard the entire address.
	WildcardNWSrcAll uint32 = 32 << nwSrcShift
	WildcardNWDstAll uint32 = 32 << nwDstShift

	// WildcardAll wildcards every field.
	WildcardAll uint32 = 0x003fffff
)

// Match is the OpenFlow 1.0 ofp_match flow match structure. A field takes
// part in matching only if its wildcard bit is clear (for nw_src/nw_dst, if
// fewer than 32 low-order bits are wildcarded).
type Match struct {
	Wildcards uint32
	InPort    uint16
	DLSrc     netaddr.MAC
	DLDst     netaddr.MAC
	DLVLAN    uint16
	DLVLANPCP uint8
	DLType    uint16
	NWTOS     uint8
	NWProto   uint8
	NWSrc     netaddr.IPv4
	NWDst     netaddr.IPv4
	TPSrc     uint16
	TPDst     uint16
}

// MatchAll returns a match that matches every packet.
func MatchAll() Match { return Match{Wildcards: WildcardAll} }

// NWSrcMaskBits returns how many high-order bits of NWSrc are significant
// (32 = exact match, 0 = fully wildcarded).
func (m Match) NWSrcMaskBits() int {
	bits := int(m.Wildcards>>nwSrcShift) & 0x3f
	if bits > 32 {
		bits = 32
	}
	return 32 - bits
}

// NWDstMaskBits returns how many high-order bits of NWDst are significant.
func (m Match) NWDstMaskBits() int {
	bits := int(m.Wildcards>>nwDstShift) & 0x3f
	if bits > 32 {
		bits = 32
	}
	return 32 - bits
}

// SetNWSrcMaskBits sets the number of significant high-order NWSrc bits.
func (m *Match) SetNWSrcMaskBits(significant int) {
	if significant < 0 {
		significant = 0
	}
	if significant > 32 {
		significant = 32
	}
	m.Wildcards = (m.Wildcards &^ (uint32(0x3f) << nwSrcShift)) | (uint32(32-significant) << nwSrcShift)
}

// SetNWDstMaskBits sets the number of significant high-order NWDst bits.
func (m *Match) SetNWDstMaskBits(significant int) {
	if significant < 0 {
		significant = 0
	}
	if significant > 32 {
		significant = 32
	}
	m.Wildcards = (m.Wildcards &^ (uint32(0x3f) << nwDstShift)) | (uint32(32-significant) << nwDstShift)
}

// FieldView is the concrete header-field view of a packet used to evaluate a
// Match. It is produced by the data-plane packet parser.
type FieldView struct {
	InPort    uint16
	DLSrc     netaddr.MAC
	DLDst     netaddr.MAC
	DLVLAN    uint16
	DLVLANPCP uint8
	DLType    uint16
	NWTOS     uint8
	NWProto   uint8
	NWSrc     netaddr.IPv4
	NWDst     netaddr.IPv4
	TPSrc     uint16
	TPDst     uint16
}

// Matches reports whether the packet fields f satisfy the match, applying
// OpenFlow 1.0 wildcard semantics.
func (m Match) Matches(f FieldView) bool {
	if m.Wildcards&WildcardInPort == 0 && m.InPort != f.InPort {
		return false
	}
	if m.Wildcards&WildcardDLSrc == 0 && m.DLSrc != f.DLSrc {
		return false
	}
	if m.Wildcards&WildcardDLDst == 0 && m.DLDst != f.DLDst {
		return false
	}
	if m.Wildcards&WildcardDLVLAN == 0 && m.DLVLAN != f.DLVLAN {
		return false
	}
	if m.Wildcards&WildcardDLVLANPCP == 0 && m.DLVLANPCP != f.DLVLANPCP {
		return false
	}
	if m.Wildcards&WildcardDLType == 0 && m.DLType != f.DLType {
		return false
	}
	if m.Wildcards&WildcardNWTOS == 0 && m.NWTOS != f.NWTOS {
		return false
	}
	if m.Wildcards&WildcardNWProto == 0 && m.NWProto != f.NWProto {
		return false
	}
	if bits := m.NWSrcMaskBits(); bits > 0 {
		if m.NWSrc.MaskBits(bits) != f.NWSrc.MaskBits(bits) {
			return false
		}
	}
	if bits := m.NWDstMaskBits(); bits > 0 {
		if m.NWDst.MaskBits(bits) != f.NWDst.MaskBits(bits) {
			return false
		}
	}
	if m.Wildcards&WildcardTPSrc == 0 && m.TPSrc != f.TPSrc {
		return false
	}
	if m.Wildcards&WildcardTPDst == 0 && m.TPDst != f.TPDst {
		return false
	}
	return true
}

// ExactFrom builds a fully specified (no wildcards) match from packet
// fields.
func ExactFrom(f FieldView) Match {
	m := Match{
		InPort:    f.InPort,
		DLSrc:     f.DLSrc,
		DLDst:     f.DLDst,
		DLVLAN:    f.DLVLAN,
		DLVLANPCP: f.DLVLANPCP,
		DLType:    f.DLType,
		NWTOS:     f.NWTOS,
		NWProto:   f.NWProto,
		NWSrc:     f.NWSrc,
		NWDst:     f.NWDst,
		TPSrc:     f.TPSrc,
		TPDst:     f.TPDst,
	}
	m.SetNWSrcMaskBits(32)
	m.SetNWDstMaskBits(32)
	return m
}

// Subsumes reports whether every packet matched by other is also matched by
// m (used for DELETE non-strict flow removal semantics).
func (m Match) Subsumes(other Match) bool {
	type field struct {
		wild      uint32
		equal     bool
		otherWild bool
	}
	fields := []field{
		{WildcardInPort, m.InPort == other.InPort, other.Wildcards&WildcardInPort != 0},
		{WildcardDLSrc, m.DLSrc == other.DLSrc, other.Wildcards&WildcardDLSrc != 0},
		{WildcardDLDst, m.DLDst == other.DLDst, other.Wildcards&WildcardDLDst != 0},
		{WildcardDLVLAN, m.DLVLAN == other.DLVLAN, other.Wildcards&WildcardDLVLAN != 0},
		{WildcardDLVLANPCP, m.DLVLANPCP == other.DLVLANPCP, other.Wildcards&WildcardDLVLANPCP != 0},
		{WildcardDLType, m.DLType == other.DLType, other.Wildcards&WildcardDLType != 0},
		{WildcardNWTOS, m.NWTOS == other.NWTOS, other.Wildcards&WildcardNWTOS != 0},
		{WildcardNWProto, m.NWProto == other.NWProto, other.Wildcards&WildcardNWProto != 0},
		{WildcardTPSrc, m.TPSrc == other.TPSrc, other.Wildcards&WildcardTPSrc != 0},
		{WildcardTPDst, m.TPDst == other.TPDst, other.Wildcards&WildcardTPDst != 0},
	}
	for _, f := range fields {
		if m.Wildcards&f.wild != 0 {
			continue // m wildcards this field: matches anything.
		}
		// m requires a value; other must require the same value.
		if f.otherWild || !f.equal {
			return false
		}
	}
	// Address prefixes: m's significant prefix must be no longer than
	// other's and agree on the common bits.
	mBits, oBits := m.NWSrcMaskBits(), other.NWSrcMaskBits()
	if mBits > oBits || m.NWSrc.MaskBits(mBits) != other.NWSrc.MaskBits(mBits) {
		return false
	}
	mBits, oBits = m.NWDstMaskBits(), other.NWDstMaskBits()
	if mBits > oBits || m.NWDst.MaskBits(mBits) != other.NWDst.MaskBits(mBits) {
		return false
	}
	return true
}

// Overlaps reports whether some packet could match both m and other. Two
// matches are disjoint only if some field is specified by both with
// incompatible values. Used for CHECK_OVERLAP flow-mod semantics.
func (m Match) Overlaps(other Match) bool {
	type pair struct {
		wild  uint32
		equal bool
	}
	pairs := []pair{
		{WildcardInPort, m.InPort == other.InPort},
		{WildcardDLSrc, m.DLSrc == other.DLSrc},
		{WildcardDLDst, m.DLDst == other.DLDst},
		{WildcardDLVLAN, m.DLVLAN == other.DLVLAN},
		{WildcardDLVLANPCP, m.DLVLANPCP == other.DLVLANPCP},
		{WildcardDLType, m.DLType == other.DLType},
		{WildcardNWTOS, m.NWTOS == other.NWTOS},
		{WildcardNWProto, m.NWProto == other.NWProto},
		{WildcardTPSrc, m.TPSrc == other.TPSrc},
		{WildcardTPDst, m.TPDst == other.TPDst},
	}
	for _, p := range pairs {
		if m.Wildcards&p.wild == 0 && other.Wildcards&p.wild == 0 && !p.equal {
			return false
		}
	}
	if common := min(m.NWSrcMaskBits(), other.NWSrcMaskBits()); common > 0 {
		if m.NWSrc.MaskBits(common) != other.NWSrc.MaskBits(common) {
			return false
		}
	}
	if common := min(m.NWDstMaskBits(), other.NWDstMaskBits()); common > 0 {
		if m.NWDst.MaskBits(common) != other.NWDst.MaskBits(common) {
			return false
		}
	}
	return true
}

// EqualStrict reports whether m and other describe exactly the same match:
// identical wildcard structure and identical values in every significant
// field (values under wildcarded fields are ignored). Used for the STRICT
// flow-mod commands.
func (m Match) EqualStrict(other Match) bool {
	// Compare effective wildcard structure (prefix lengths normalized).
	if m.Wildcards&^(uint32(0x3f)<<nwSrcShift|uint32(0x3f)<<nwDstShift) !=
		other.Wildcards&^(uint32(0x3f)<<nwSrcShift|uint32(0x3f)<<nwDstShift) {
		return false
	}
	if m.NWSrcMaskBits() != other.NWSrcMaskBits() || m.NWDstMaskBits() != other.NWDstMaskBits() {
		return false
	}
	return m.Subsumes(other) && other.Subsumes(m)
}

// marshal appends the 40-byte wire encoding of the match.
func (m Match) marshal(w *writer) {
	w.u32(m.Wildcards)
	w.u16(m.InPort)
	w.bytes(m.DLSrc[:])
	w.bytes(m.DLDst[:])
	w.u16(m.DLVLAN)
	w.u8(m.DLVLANPCP)
	w.pad(1)
	w.u16(m.DLType)
	w.u8(m.NWTOS)
	w.u8(m.NWProto)
	w.pad(2)
	w.bytes(m.NWSrc[:])
	w.bytes(m.NWDst[:])
	w.u16(m.TPSrc)
	w.u16(m.TPDst)
}

// unmarshal parses the 40-byte wire encoding of the match. It defers to
// decodeMatch (shared with the zero-copy Frame view) so the typed path
// pays no per-field allocations either.
func (m *Match) unmarshal(r *reader) {
	if r.err != nil || r.remaining() < matchLen && r.fail() {
		return
	}
	*m = decodeMatch(r.b[r.off:])
	r.off += matchLen
}

// String renders the non-wildcarded fields, e.g.
// "in_port=1,dl_src=..,nw_dst=10.0.0.3/32".
func (m Match) String() string {
	if m.Wildcards == WildcardAll {
		return "any"
	}
	var parts []string
	add := func(wild uint32, name, val string) {
		if m.Wildcards&wild == 0 {
			parts = append(parts, name+"="+val)
		}
	}
	add(WildcardInPort, "in_port", fmt.Sprintf("%d", m.InPort))
	add(WildcardDLSrc, "dl_src", m.DLSrc.String())
	add(WildcardDLDst, "dl_dst", m.DLDst.String())
	add(WildcardDLVLAN, "dl_vlan", fmt.Sprintf("%d", m.DLVLAN))
	add(WildcardDLVLANPCP, "dl_vlan_pcp", fmt.Sprintf("%d", m.DLVLANPCP))
	add(WildcardDLType, "dl_type", fmt.Sprintf("0x%04x", m.DLType))
	add(WildcardNWTOS, "nw_tos", fmt.Sprintf("%d", m.NWTOS))
	add(WildcardNWProto, "nw_proto", fmt.Sprintf("%d", m.NWProto))
	if bits := m.NWSrcMaskBits(); bits > 0 {
		parts = append(parts, fmt.Sprintf("nw_src=%s/%d", m.NWSrc, bits))
	}
	if bits := m.NWDstMaskBits(); bits > 0 {
		parts = append(parts, fmt.Sprintf("nw_dst=%s/%d", m.NWDst, bits))
	}
	add(WildcardTPSrc, "tp_src", fmt.Sprintf("%d", m.TPSrc))
	add(WildcardTPDst, "tp_dst", fmt.Sprintf("%d", m.TPDst))
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}

// decodeMatch parses a 40-byte ofp_match region without allocating.
// b must be at least matchLen bytes.
func decodeMatch(b []byte) Match {
	var m Match
	m.Wildcards = binary.BigEndian.Uint32(b[0:4])
	m.InPort = binary.BigEndian.Uint16(b[4:6])
	copy(m.DLSrc[:], b[6:12])
	copy(m.DLDst[:], b[12:18])
	m.DLVLAN = binary.BigEndian.Uint16(b[18:20])
	m.DLVLANPCP = b[20]
	// b[21] is padding.
	m.DLType = binary.BigEndian.Uint16(b[22:24])
	m.NWTOS = b[24]
	m.NWProto = b[25]
	// b[26:28] is padding.
	copy(m.NWSrc[:], b[28:32])
	copy(m.NWDst[:], b[32:36])
	m.TPSrc = binary.BigEndian.Uint16(b[36:38])
	m.TPDst = binary.BigEndian.Uint16(b[38:40])
	return m
}
