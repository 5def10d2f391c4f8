package openflow

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Buffer recycling for the message hot path. Frame buffers cross
// goroutines (a connection's reader fills one, an event loop's queue
// carries it, the loop's coalesced write recycles it), so a bare sync.Pool of []byte would pay one slice-header allocation per
// Put (the &b box escapes). The pool here layers a lock-free channel
// free-list in front of a sync.Pool: the free-list serves the steady state
// with zero allocations of any kind, and the sync.Pool absorbs overflow so
// bursts beyond the free-list's capacity still amortize under GC pressure
// instead of being dropped.
const (
	// poolBufferCap is the initial capacity of a fresh pooled buffer —
	// enough for every fixed-size OpenFlow 1.0 message and typical
	// PACKET_IN/PACKET_OUT frames without growing.
	poolBufferCap = 256
	// poolRetainMax bounds the capacity of buffers the pool retains, so a
	// burst of maximum-length frames cannot pin megabytes forever.
	poolRetainMax = 1 << 14
	// poolFreeListLen sizes the channel free-list. It exceeds the deepest
	// per-session write queue so a full pipeline can circulate entirely
	// through the free-list.
	poolFreeListLen = 8192
)

var (
	bufFreeList = make(chan []byte, poolFreeListLen)
	bufOverflow = sync.Pool{New: func() any { b := make([]byte, 0, poolBufferCap); return &b }}
)

// GetBuffer returns an empty buffer for reading or marshalling one framed
// message. Return it with PutBuffer when the bytes are no longer referenced
// by anyone (see the ownership rules in DESIGN.md).
func GetBuffer() []byte {
	select {
	case b := <-bufFreeList:
		return b[:0]
	default:
	}
	return (*bufOverflow.Get().(*[]byte))[:0]
}

// PutBuffer recycles a buffer obtained from GetBuffer. Foreign buffers are
// absorbed too (the pool only cares about capacity), so delivery pipelines
// may unconditionally recycle every frame they finish writing. Oversized
// and zero-capacity buffers are dropped. PutBuffer of nil is a no-op.
func PutBuffer(b []byte) {
	if cap(b) < HeaderLen || cap(b) > poolRetainMax {
		return
	}
	b = b[:0]
	select {
	case bufFreeList <- b:
	default:
		putOverflow(b)
	}
}

// putOverflow hands a buffer to the sync.Pool. Kept out of PutBuffer (and
// out of its inliner) so the &b escape only costs an allocation on the
// overflow path, not on every free-list Put.
//
//go:noinline
func putOverflow(b []byte) {
	bufOverflow.Put(&b)
}

// ReadRawInto reads exactly one framed OpenFlow message from r into buf,
// growing it if needed, and returns the frame (header included, len equal
// to the header's length field). The result aliases buf's backing array
// whenever its capacity sufficed; pass the result back in on the next call
// to reuse it. On error the returned slice is still the caller's buffer
// (possibly grown, contents undefined) so it can be recycled.
func ReadRawInto(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < HeaderLen {
		buf = make([]byte, 0, poolBufferCap)
	}
	buf = buf[:HeaderLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	length := int(binary.BigEndian.Uint16(buf[2:4]))
	if length < HeaderLen {
		return buf, ErrBadLength
	}
	if length > cap(buf) {
		grown := make([]byte, length)
		copy(grown, buf[:HeaderLen])
		buf = grown
	} else {
		buf = buf[:length]
	}
	if _, err := io.ReadFull(r, buf[HeaderLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}

// MessageReader decodes successive framed messages from one stream,
// recycling a single read buffer across calls — the steady state performs
// no per-message buffer allocation. Decoded messages never alias the
// internal buffer (Unmarshal copies variable-length fields), so they may
// outlive the next Read.
type MessageReader struct {
	r   io.Reader
	buf []byte
}

// NewMessageReader wraps r with a pooled read buffer. Call Close when done
// with the stream to recycle it.
func NewMessageReader(r io.Reader) *MessageReader {
	return &MessageReader{r: r, buf: GetBuffer()}
}

// Read reads and decodes the next message.
func (mr *MessageReader) Read() (Header, Message, error) {
	raw, err := ReadRawInto(mr.r, mr.buf)
	mr.buf = raw
	if err != nil {
		return Header{}, nil, err
	}
	return Unmarshal(raw)
}

// Close recycles the reader's buffer. The reader must not be used after.
func (mr *MessageReader) Close() {
	PutBuffer(mr.buf)
	mr.buf = nil
}

// AppendMessage appends the framed encoding of msg (with the given
// transaction id) to b and returns the extended slice — Marshal without
// the per-message allocation, for callers writing into pooled buffers. On
// error b is returned truncated to its original length.
func AppendMessage(b []byte, xid uint32, msg Message) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	b, err := msg.marshalBody(b)
	if err != nil {
		return b[:start], fmt.Errorf("marshal %s: %w", msg.Type(), err)
	}
	frameLen := len(b) - start
	if frameLen > MaxMessageLen {
		return b[:start], fmt.Errorf("marshal %s: message length %d exceeds maximum: %w", msg.Type(), frameLen, ErrBadLength)
	}
	hdr := b[start:]
	hdr[0] = Version
	hdr[1] = uint8(msg.Type())
	binary.BigEndian.PutUint16(hdr[2:4], uint16(frameLen))
	binary.BigEndian.PutUint32(hdr[4:8], xid)
	return b, nil
}
