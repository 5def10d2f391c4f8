package openflow

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzFrameViewDifferential pins the zero-copy Frame view against the full
// codec: for arbitrary input, whenever Unmarshal accepts a frame NewFrame
// must too, every row of Fields must read what Unmarshal decodes, and on
// frames the codec re-encodes byte for byte, SetField on every settable
// row must produce what "Unmarshal, set the struct field, Marshal" does.
// NewFrame is deliberately laxer than Unmarshal — it validates only header
// framing, leaving bodies lazy — so reads additionally must never panic on
// frames whose bodies Unmarshal rejects. The rows are iterated, and the
// corpus holds one frame per row, so a new row is fuzzed by this target
// as it stands.
func FuzzFrameViewDifferential(f *testing.F) {
	addFuzzSeeds(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, ferr := NewFrame(data)
		hdr, msg, uerr := Unmarshal(data)

		if uerr == nil && ferr != nil {
			t.Fatalf("Unmarshal accepted a %s frame NewFrame rejected: %v", hdr.Type, ferr)
		}
		if ferr != nil {
			return
		}

		// Header fields come straight from the wire in both views.
		if fr.Version() != hdr.Version || fr.Type() != hdr.Type ||
			fr.Len() != int(hdr.Length) || fr.Xid() != hdr.Xid {
			t.Fatalf("header mismatch: frame (%d %s len=%d xid=%d) vs header %+v",
				fr.Version(), fr.Type(), fr.Len(), fr.Xid(), hdr)
		}
		if !bytes.Equal(fr.Bytes(), data[:hdr.Length]) {
			t.Fatal("Bytes() does not view the framed bytes")
		}

		// On body-invalid frames the rows must simply not panic.
		for i := range Fields {
			fr.Field(&Fields[i])
		}
		if uerr != nil {
			return
		}

		fh, fm, merr := fr.Materialize()
		if merr != nil || fh != hdr {
			t.Fatalf("Materialize diverged from Unmarshal: %v %+v vs %+v", merr, fh, hdr)
		}
		if fm.Type() != msg.Type() {
			t.Fatalf("Materialize type %s vs %s", fm.Type(), msg.Type())
		}
		checkRowsAgainstCodec(t, fr, hdr, msg)

		// The mutation path (Materialize + AppendMessage with the original
		// xid) must stay byte-compatible with the old Marshal codec.
		old, err := Marshal(hdr.Xid, msg)
		if err != nil {
			return
		}
		appended, err := AppendMessage(GetBuffer(), hdr.Xid, fm)
		if err != nil {
			t.Fatalf("AppendMessage failed where Marshal succeeded: %v", err)
		}
		if !bytes.Equal(appended, old) {
			t.Fatalf("AppendMessage not byte-compatible with Marshal:\n%x\n%x", appended, old)
		}
		PutBuffer(appended)
		if bytes.Equal(old, fr.Bytes()) {
			checkSetAgainstCodec(t, old, uint64(hdr.Xid)<<16|uint64(len(data)))
		}
	})
}

// TestNewFrameRejectsBadFraming pins the header validation split between
// NewFrame and Unmarshal.
func TestNewFrameRejectsBadFraming(t *testing.T) {
	raw, err := Marshal(9, &EchoRequest{Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFrame(raw); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func([]byte)
		want   error
	}{
		{"short", func(b []byte) {}, ErrTruncated},
		{"bad version", func(b []byte) { b[0] = 0x04 }, ErrBadVersion},
		{"unknown type", func(b []byte) { b[1] = 99 }, ErrUnknownType},
		{"length below header", func(b []byte) { b[2], b[3] = 0, 4 }, ErrBadLength},
		{"length beyond data", func(b []byte) { b[2], b[3] = 0xff, 0xff }, ErrTruncated},
	}
	for _, tc := range cases {
		b := append([]byte(nil), raw...)
		if tc.name == "short" {
			b = b[:4]
		}
		tc.mutate(b)
		if _, err := NewFrame(b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
