package openflow

import (
	"bytes"
	"testing"
)

// fuzzSeedMessages returns one valid message of every type — the shared
// seed corpus for FuzzUnmarshal and FuzzFrameViewDifferential.
func fuzzSeedMessages() []Message {
	return []Message{
		&Hello{},
		&ErrorMsg{ErrType: 3, Code: 1, Data: []byte{1}},
		&EchoRequest{Data: []byte("seed")},
		&EchoReply{},
		&Vendor{VendorID: 0x2320},
		&FeaturesRequest{},
		&FeaturesReply{DatapathID: 7, NBuffers: 256, NTables: 1,
			Ports: []PhyPort{{PortNo: 1, Name: "p1"}}},
		&GetConfigRequest{},
		&GetConfigReply{MissSendLen: 128},
		&SetConfig{MissSendLen: 128},
		&PacketIn{BufferID: NoBuffer, InPort: 1, Data: []byte{0xde, 0xad}},
		&FlowRemoved{Match: MatchAll(), Reason: FlowRemovedIdleTimeout},
		&PortStatus{Reason: PortStatusModify, Desc: PhyPort{PortNo: 2}},
		&PacketOut{BufferID: NoBuffer, InPort: PortNone,
			Actions: []Action{ActionOutput{Port: PortFlood}}, Data: []byte{1}},
		&FlowMod{Match: MatchAll(), BufferID: NoBuffer, OutPort: PortNone,
			Actions: []Action{ActionOutput{Port: 1}, ActionSetNWTOS{TOS: 4}}},
		&PortMod{PortNo: 1},
		&StatsRequest{Body: &FlowStatsRequest{Match: MatchAll(), TableID: 0xff, OutPort: PortNone}},
		&StatsReply{Body: &AggregateStatsReply{PacketCount: 1}},
		&BarrierRequest{},
		&BarrierReply{},
		&QueueGetConfigRequest{Port: 1},
		&QueueGetConfigReply{Port: 1},
	}
}

// addFuzzSeeds registers the shared corpus: one frame per message type,
// one per row of Fields, plus framing edge cases.
func addFuzzSeeds(f *testing.F) {
	f.Helper()
	for _, m := range fuzzSeedMessages() {
		raw, err := Marshal(1, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, raw := range rowSeeds(f) {
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 14, 0x00, 0x09, 0, 0, 0, 0, 0xff}) // short flow mod
}

// FuzzUnmarshal feeds arbitrary bytes through the frame decoder; it must
// never panic, and whatever decodes must re-encode to an equivalent frame.
func FuzzUnmarshal(f *testing.F) {
	addFuzzSeeds(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, msg, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Valid decodes must re-encode and decode to the same value.
		out, err := Marshal(hdr.Xid, msg)
		if err != nil {
			t.Fatalf("re-marshal of decoded %s failed: %v", msg.Type(), err)
		}
		hdr2, msg2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-decode of %s failed: %v", msg.Type(), err)
		}
		if hdr2.Xid != hdr.Xid || hdr2.Type != hdr.Type {
			t.Fatalf("header drift: %+v vs %+v", hdr, hdr2)
		}
		// Third generation must be byte-identical (canonical form).
		out2, err := Marshal(hdr2.Xid, msg2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("non-canonical re-encode of %s", msg.Type())
		}
	})
}
