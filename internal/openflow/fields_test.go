package openflow

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"attain/internal/netaddr"
)

// codecField returns the typed codec's struct field that fd's Codec column
// names: on the message struct, or on the header for the header rows.
func codecField(hdr *Header, msg Message, fd *Field) reflect.Value {
	v := reflect.ValueOf(hdr).Elem()
	if fd.Types != nil {
		v = reflect.ValueOf(msg).Elem()
	}
	for _, name := range strings.Split(fd.Codec, ".") {
		v = v.FieldByName(name)
	}
	return v
}

// codecUint reads a codec field as the table reads it: integers as they
// are, byte arrays (addresses) big-endian.
func codecUint(v reflect.Value) uint64 {
	if v.Kind() != reflect.Array {
		return v.Uint()
	}
	var n uint64
	for i := 0; i < v.Len(); i++ {
		n = n<<8 | v.Index(i).Uint()
	}
	return n
}

// setCodecUint is codecUint's inverse, truncating n to the field's width.
func setCodecUint(v reflect.Value, n uint64) {
	if v.Kind() != reflect.Array {
		v.SetUint(n)
		return
	}
	for i := v.Len() - 1; i >= 0; i-- {
		v.Index(i).SetUint(n & 0xff)
		n >>= 8
	}
}

// codecWildcards returns the decoded ofp_match wildcards of msg; only rows
// with a Wildcard bit, which are ofp_match fields, ask for them.
func codecWildcards(msg Message) uint32 {
	return uint32(reflect.ValueOf(msg).Elem().FieldByName("Match").FieldByName("Wildcards").Uint())
}

// codecCarries reports whether the typed codec's msg holds fd's value:
// a message of one of fd's types whose match does not wildcard it.
func codecCarries(msg Message, fd *Field) bool {
	if fd.Types != nil && !slices.Contains(fd.Types, msg.Type()) {
		return false
	}
	return fd.Wildcard == 0 || codecWildcards(msg)&fd.Wildcard == 0
}

// checkRowsAgainstCodec compares every row's frame read with the typed
// codec's decode of the same bytes.
func checkRowsAgainstCodec(t *testing.T, fr Frame, hdr Header, msg Message) {
	t.Helper()
	for i := range Fields {
		fd := &Fields[i]
		got, ok := fr.Field(fd)
		want := codecCarries(msg, fd)
		if ok != want {
			t.Fatalf("%s on %s: read ok=%v, codec carries it: %v", fd.Name, msg.Type(), ok, want)
		}
		if ok && got != codecUint(codecField(&hdr, msg, fd)) {
			t.Fatalf("%s on %s: frame reads %#x, codec %s = %v", fd.Name, msg.Type(), got, fd.Codec,
				codecField(&hdr, msg, fd))
		}
	}
}

// checkSetAgainstCodec compares SetField on every settable row with the
// codec path it replaces: Unmarshal, set the struct field (and clear its
// wildcard), Marshal. Only frames the codec re-encodes byte for byte can
// be compared; v is the value to set.
func checkSetAgainstCodec(t *testing.T, raw []byte, v uint64) {
	t.Helper()
	for i := range Fields {
		fd := &Fields[i]
		if !fd.Settable {
			continue
		}
		patched := append([]byte(nil), raw...)
		fr, err := NewFrame(patched)
		if err != nil {
			t.Fatal(err)
		}
		hdr, msg, err := Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		ok := fr.SetField(fd, v)
		if ok != (fd.Types == nil || slices.Contains(fd.Types, hdr.Type)) {
			t.Fatalf("%s on %s: SetField ok=%v", fd.Name, hdr.Type, ok)
		}
		want := raw
		if ok {
			setCodecUint(codecField(&hdr, msg, fd), v)
			if fd.Wildcard != 0 {
				reflect.ValueOf(msg).Elem().FieldByName("Match").FieldByName("Wildcards").
					SetUint(uint64(codecWildcards(msg) &^ fd.Wildcard))
			}
			if want, err = Marshal(hdr.Xid, msg); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(patched, want) {
			t.Fatalf("%s = %#x on %s:\nSetField %x\ncodec    %x", fd.Name, v, hdr.Type, patched, want)
		}
	}
}

// rowSeeds returns one frame per row of Fields, each carrying the row's
// field with a value of its own (row index + 2), for the fuzz corpora.
func rowSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	exact := ExactFrom(FieldView{InPort: 1, DLType: 0x0800, NWProto: 6,
		NWSrc: netaddr.IPv4{10, 0, 0, 1}, NWDst: netaddr.IPv4{10, 0, 0, 2}, TPSrc: 1, TPDst: 2})
	bases := map[Type]Message{
		TypeHello:       &Hello{},
		TypeFlowMod:     &FlowMod{Match: exact, BufferID: NoBuffer, OutPort: PortNone, Actions: []Action{ActionOutput{Port: 1}}},
		TypeFlowRemoved: &FlowRemoved{Match: exact},
		TypePacketIn:    &PacketIn{BufferID: NoBuffer, InPort: 1, Data: []byte{1, 2}},
		TypePacketOut:   &PacketOut{BufferID: NoBuffer, InPort: PortNone, Actions: []Action{ActionOutput{Port: 1}}},
	}
	var seeds [][]byte
	for i := range Fields {
		fd := &Fields[i]
		base := TypeHello
		if fd.Types != nil {
			base = fd.Types[0]
		}
		raw, err := Marshal(1, bases[base])
		if err != nil {
			tb.Fatal(err)
		}
		v := uint64(i + 2)
		for j := fd.Off + fd.Width - 1; j >= fd.Off; j-- {
			raw[j] = byte(v)
			v >>= 8
		}
		seeds = append(seeds, raw)
	}
	return seeds
}

// TestFieldsMatchCodec pins every row against the typed codec on the
// shared corpus: reads on every frame, and SetField on every settable row.
func TestFieldsMatchCodec(t *testing.T) {
	frames := rowSeeds(t)
	for _, m := range fuzzSeedMessages() {
		raw, err := Marshal(7, m)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, raw)
	}
	for i, raw := range frames {
		fr, err := NewFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		hdr, msg, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		checkRowsAgainstCodec(t, fr, hdr, msg)
		checkSetAgainstCodec(t, raw, 0xfedcba9876543210>>uint(i%32))
	}
}

// TestFieldSeedsReadTheirRow pins the corpus: each row's seed carries the
// row's field with the seed's own value.
func TestFieldSeedsReadTheirRow(t *testing.T) {
	for i, raw := range rowSeeds(t) {
		fr, err := NewFrame(raw)
		if err != nil {
			t.Fatalf("%s seed: %v", Fields[i].Name, err)
		}
		if v, ok := fr.Field(&Fields[i]); !ok || v != uint64(i+2) {
			t.Errorf("%s seed reads %d, %v", Fields[i].Name, v, ok)
		}
	}
}

// TestNWMaskWildcardBit pins the nw_src/nw_dst rows' Wildcard: the top bit
// of the 6-bit mask count is set exactly when the prefix is /0.
func TestNWMaskWildcardBit(t *testing.T) {
	for bits := uint32(0); bits < 64; bits++ {
		m := Match{Wildcards: bits<<nwSrcShift | bits<<nwDstShift}
		if (m.NWSrcMaskBits() == 0) != (m.Wildcards&WildcardNWSrcAll != 0) ||
			(m.NWDstMaskBits() == 0) != (m.Wildcards&WildcardNWDstAll != 0) {
			t.Errorf("mask count %d: /0 and the wildcard bit disagree", bits)
		}
	}
}
