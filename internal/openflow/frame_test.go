package openflow

import (
	"bytes"
	"io"
	"testing"
)

func mustFrame(t *testing.T, xid uint32, msg Message) Frame {
	t.Helper()
	raw, err := Marshal(xid, msg)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestFrameHeaderAccessors(t *testing.T) {
	fr := mustFrame(t, 0xdeadbeef, &EchoRequest{Data: []byte("ping")})
	if fr.Version() != Version || fr.Type() != TypeEchoRequest {
		t.Fatalf("header accessors: version=%d type=%s", fr.Version(), fr.Type())
	}
	if fr.Xid() != 0xdeadbeef {
		t.Fatalf("xid = %#x", fr.Xid())
	}
	if fr.Len() != HeaderLen+4 || string(fr.Bytes()[HeaderLen:]) != "ping" {
		t.Fatalf("len = %d bytes = %q", fr.Len(), fr.Bytes())
	}
	var zero Frame
	if zero.Valid() || zero.Type() != 0 || zero.Xid() != 0 || zero.Version() != 0 {
		t.Error("zero Frame is not inert")
	}
}

// readField reads the row named name from fr.
func readField(t *testing.T, fr Frame, name string) (uint64, bool) {
	t.Helper()
	fd, ok := FieldNamed(name)
	if !ok {
		t.Fatalf("no row %s", name)
	}
	return fr.Field(fd)
}

func TestFrameFlowModAccessors(t *testing.T) {
	fm := &FlowMod{
		Match:       ExactFrom(FieldView{InPort: 3, DLType: 0x0800, NWProto: 6, TPSrc: 80, TPDst: 443}),
		Cookie:      0x1122334455667788,
		Command:     FlowModModifyStrict,
		IdleTimeout: 60,
		HardTimeout: 600,
		Priority:    32768,
		BufferID:    NoBuffer,
		OutPort:     PortNone,
		Actions:     []Action{ActionOutput{Port: 2}},
	}
	fr := mustFrame(t, 1, fm)
	for name, want := range map[string]uint64{
		"msg.type": uint64(TypeFlowMod), "msg.xid": 1,
		"msg.flowmod.command": uint64(FlowModModifyStrict), "msg.flowmod.idle_timeout": 60,
		"msg.flowmod.hard_timeout": 600, "msg.flowmod.priority": 32768,
		"msg.flowmod.buffer_id": uint64(NoBuffer), "msg.match.in_port": 3,
		"msg.match.dl_type": 0x0800, "msg.match.nw_proto": 6, "msg.match.tp_src": 80,
		"msg.match.tp_dst": 443, "msg.match.nw_src": 0, "msg.match.dl_src": 0,
	} {
		if got, ok := readField(t, fr, name); !ok || got != want {
			t.Errorf("%s = %d (ok=%v), want %d", name, got, ok, want)
		}
	}
	// A wildcarded match field, and the /0 nw_dst, read as absent.
	fm.Match.Wildcards |= WildcardTPDst
	fm.Match.SetNWDstMaskBits(0)
	fr = mustFrame(t, 1, fm)
	for _, name := range []string{"msg.match.tp_dst", "msg.match.nw_dst", "msg.packetin.in_port"} {
		if v, ok := readField(t, fr, name); ok {
			t.Errorf("%s read %d on a frame that does not carry it", name, v)
		}
	}
	if _, ok := readField(t, fr, "msg.match.tp_src"); !ok {
		t.Error("tp_src hidden by tp_dst's wildcard")
	}
}

func TestFramePacketAccessors(t *testing.T) {
	pi := &PacketIn{BufferID: 42, TotalLen: 99, InPort: 7, Reason: PacketInReasonAction, Data: []byte{1, 2, 3}}
	fr := mustFrame(t, 2, pi)
	for name, want := range map[string]uint64{
		"msg.packetin.buffer_id": 42, "msg.packetin.in_port": 7, "msg.packetin.reason": uint64(PacketInReasonAction),
	} {
		if got, ok := readField(t, fr, name); !ok || got != want {
			t.Errorf("%s = %d (ok=%v), want %d", name, got, ok, want)
		}
	}
	fro := mustFrame(t, 3, &PacketOut{BufferID: NoBuffer, InPort: 5, Actions: []Action{ActionOutput{Port: 1}}})
	for name, want := range map[string]uint64{"msg.packetout.buffer_id": uint64(NoBuffer), "msg.packetout.in_port": 5} {
		if got, ok := readField(t, fro, name); !ok || got != want {
			t.Errorf("%s = %d (ok=%v), want %d", name, got, ok, want)
		}
	}

	// Wrong-type, truncated-body and zero-frame lookups fail cleanly, and
	// SetField writes nothing where it cannot.
	if _, ok := readField(t, fro, "msg.packetin.buffer_id"); ok {
		t.Error("PACKET_IN buffer_id read on a PACKET_OUT frame")
	}
	if _, ok := readField(t, fr, "msg.match.in_port"); ok {
		t.Error("match read on a PACKET_IN frame")
	}
	short := []byte{Version, byte(TypePacketIn), 0, 16, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 3}
	sf, err := NewFrame(short)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := readField(t, sf, "msg.packetin.reason"); ok {
		t.Error("reason read past the end of a 16-byte PACKET_IN")
	}
	if v, ok := readField(t, sf, "msg.packetin.in_port"); !ok || v != 3 {
		t.Errorf("in_port of the truncated PACKET_IN = %d, %v", v, ok)
	}
	if _, ok := readField(t, Frame{}, "msg.xid"); ok {
		t.Error("xid read on the zero Frame")
	}
	inPort, _ := FieldNamed("msg.packetin.in_port")
	xid, _ := FieldNamed("msg.xid")
	before := append([]byte(nil), fro.Bytes()...)
	if fro.SetField(inPort, 1) || fr.SetField(xid, 1) || !bytes.Equal(fro.Bytes(), before) {
		t.Error("SetField wrote a row the frame does not carry, or one that is not settable")
	}
	if !fr.SetField(inPort, 0x10009) {
		t.Fatal("SetField refused PACKET_IN in_port")
	}
	if v, _ := fr.Field(inPort); v != 9 {
		t.Errorf("in_port after SetField = %d, want the low 16 bits, 9", v)
	}
	if _, ok := FieldNamed("msg.length"); ok {
		t.Error("metadata property found in the payload table")
	}
}

// TestFrameAccessorsZeroAlloc pins that building a view, reading every row
// and patching a settable one never allocates.
func TestFrameAccessorsZeroAlloc(t *testing.T) {
	seeds := rowSeeds(t)
	idle, _ := FieldNamed("msg.flowmod.idle_timeout")
	fm := seeds[3]
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		for _, b := range [][]byte{seeds[0], fm} {
			fr, err := NewFrame(b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range Fields {
				v, _ := fr.Field(&Fields[i])
				sink += v
			}
		}
		fr, _ := NewFrame(fm)
		fr.SetField(idle, sink)
	})
	if allocs != 0 {
		t.Fatalf("frame field access allocates: %v allocs/op (sink %d)", allocs, sink)
	}
}

// TestReadRawIntoZeroAllocSteadyState pins that re-reading frames into a
// recycled buffer does not allocate once the buffer has grown to fit.
func TestReadRawIntoZeroAllocSteadyState(t *testing.T) {
	raw, err := Marshal(1, &PacketIn{BufferID: NoBuffer, InPort: 1, Data: bytes.Repeat([]byte{0xab}, 100)})
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.NewReader(nil)
	buf := GetBuffer()
	allocs := testing.AllocsPerRun(1000, func() {
		stream.Reset(raw)
		buf, err = ReadRawInto(stream, buf)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadRawInto allocates in steady state: %v allocs/op", allocs)
	}
	if !bytes.Equal(buf, raw) {
		t.Fatal("ReadRawInto corrupted the frame")
	}
	PutBuffer(buf)
}

func TestReadRawIntoGrowsAndErrors(t *testing.T) {
	big, err := Marshal(1, &EchoRequest{Data: bytes.Repeat([]byte{1}, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadRawInto(bytes.NewReader(big), make([]byte, 0, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("grown read corrupted the frame")
	}

	if _, err := ReadRawInto(bytes.NewReader(big[:4]), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("short header err = %v", err)
	}
	if _, err := ReadRawInto(bytes.NewReader(big[:20]), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("short body err = %v", err)
	}
	bad := append([]byte(nil), big...)
	bad[2], bad[3] = 0, 3
	if _, err := ReadRawInto(bytes.NewReader(bad), nil); err != ErrBadLength {
		t.Fatalf("bad length err = %v", err)
	}
}

func TestBufferPoolRoundTrip(t *testing.T) {
	b := GetBuffer()
	if len(b) != 0 || cap(b) < HeaderLen {
		t.Fatalf("GetBuffer: len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, []byte("0123456789abcdef")...)
	PutBuffer(b)
	// Oversized and nil buffers must be rejected without panicking.
	PutBuffer(nil)
	PutBuffer(make([]byte, 0, poolRetainMax+1))
}
