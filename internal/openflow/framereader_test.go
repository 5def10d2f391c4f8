package openflow

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// chunkReader hands out data in reads whose sizes cycle through sizes
// (each entry plus one byte, so no read is empty), and optionally returns
// io.EOF together with the last bytes, as some transports do.
type chunkReader struct {
	data        []byte
	sizes       []byte
	next        int
	eofWithData bool
	reads       int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(c.data)
	if len(c.sizes) > 0 {
		n = int(c.sizes[c.next%len(c.sizes)]) + 1
		c.next++
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	if len(c.data) == 0 && c.eofWithData {
		return n, io.EOF
	}
	return n, nil
}

// readAllRaw is the oracle: repeated ReadRawInto until its first error.
func readAllRaw(stream []byte) ([][]byte, error) {
	r := bytes.NewReader(stream)
	var frames [][]byte
	for {
		raw, err := ReadRawInto(r, nil)
		if err != nil {
			return frames, err
		}
		frames = append(frames, raw)
	}
}

// frameStream concatenates the frames of msgs.
func frameStream(tb testing.TB, msgs ...Message) []byte {
	tb.Helper()
	var out []byte
	for i, m := range msgs {
		raw, err := Marshal(uint32(i+1), m)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, raw...)
	}
	return out
}

// FuzzFrameReaderDifferential pins FrameReader against repeated
// ReadRawInto: however the stream is split into transport reads, it
// returns the same frames, in buffers that do not alias one another, and
// ends with the same error — io.EOF at a frame boundary,
// io.ErrUnexpectedEOF inside a frame, ErrBadLength for a length field
// below the header size.
func FuzzFrameReaderDifferential(f *testing.F) {
	var all []Message
	for _, m := range fuzzSeedMessages() {
		stream := frameStream(f, m, m, m)
		f.Add(stream, []byte{}, false)
		f.Add(stream, []byte{0, 6, 2}, true)
		all = append(all, m)
	}
	// Runs whose frames straddle a pooled buffer's capacity, a frame
	// larger than it, a malformed length mid-stream and a cut frame.
	whole := frameStream(f, all...)
	f.Add(whole, []byte{}, false)
	f.Add(whole, []byte{poolBufferCap - 2, 9}, true)
	echoes := make([]Message, 40)
	for i := range echoes {
		echoes[i] = &EchoRequest{Data: []byte{byte(i), 1, 2}}
	}
	f.Add(frameStream(f, echoes...), []byte{}, false)
	f.Add(frameStream(f, &PacketIn{BufferID: NoBuffer, Data: bytes.Repeat([]byte{7}, 2*poolBufferCap)}, &Hello{}), []byte{}, false)
	f.Add(append(frameStream(f, &Hello{}), Version, byte(TypeHello), 0, 4, 0, 0, 0, 1), []byte{}, false)
	f.Add(whole[:len(whole)-3], []byte{30}, false)

	f.Fuzz(func(t *testing.T, stream, sizes []byte, eofWithData bool) {
		want, wantErr := readAllRaw(stream)
		fr := NewFrameReader(&chunkReader{data: stream, sizes: sizes, eofWithData: eofWithData})
		var got [][]byte
		var err error
		for {
			var raw []byte
			if raw, err = fr.Read(); err != nil {
				if raw != nil {
					t.Fatal("Read returned a buffer with its error")
				}
				break
			}
			got = append(got, raw)
			if len(got) > len(want) {
				t.Fatalf("FrameReader returned more than the %d frames ReadRawInto did", len(want))
			}
		}
		if err != wantErr {
			t.Fatalf("terminal error %v, ReadRawInto %v", err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d frames, ReadRawInto %d", len(got), len(want))
		}
		// Compared only once all are read: a frame sharing a backing
		// array with a later one would show here.
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d: %x, ReadRawInto %x", i, got[i], want[i])
			}
			PutBuffer(got[i])
		}
		if _, again := fr.Read(); again != err {
			t.Fatalf("error not final: %v then %v", err, again)
		}
	})
}

// TestFrameReaderOneReadPerRun: frames that arrive together cost one
// transport read, and a reader that has handed all of them out holds no
// tail.
func TestFrameReaderOneReadPerRun(t *testing.T) {
	msgs := make([]Message, 10)
	for i := range msgs {
		msgs[i] = &EchoRequest{}
	}
	src := &chunkReader{data: frameStream(t, msgs...)}
	fr := NewFrameReader(src)
	for i := range msgs {
		raw, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if Type(raw[1]) != TypeEchoRequest || len(raw) != HeaderLen {
			t.Fatalf("frame %d = %x", i, raw)
		}
		PutBuffer(raw)
	}
	if src.reads != 1 {
		t.Errorf("%d transport reads for one run of frames, want 1", src.reads)
	}
	if fr.tail != nil {
		t.Errorf("drained reader still holds a %d-byte tail", cap(fr.tail))
	}
	if _, err := fr.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}
