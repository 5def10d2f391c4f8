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

// FrameReader reads successive framed messages from one stream. Each Read
// returns one whole frame in a pooled buffer the caller owns, as
// ReadRawInto's result is, so ownership can move with the frame. The
// transport read goes into that buffer's spare capacity. Bytes past the
// frame make the buffer the reader's tail: the frame is copied out, the
// frames behind it follow, and the tail itself carries the last of them
// (or the start of the next frame, for the next transport read). A run
// of small frames therefore costs one transport read, while a reader
// blocked at a frame boundary holds nothing but the buffer its next
// frame will land in.
//
// Create one reader per connection direction, before its first byte is
// read: bytes it has read ahead belong to no one else. Errors match
// repeated ReadRawInto calls: io.EOF at a frame boundary,
// io.ErrUnexpectedEOF inside a frame, ErrBadLength for a length field
// below the header size, and the transport's own error otherwise. An
// error is final; the frames read before it are returned first.
type FrameReader struct {
	r    io.Reader
	tail []byte // pooled; tail[off:] are bytes read past the last frame
	off  int
	err  error
}

// NewFrameReader returns a reader of the frames on r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Read returns the next frame (header included, len equal to its length
// field) in a pooled buffer. Return it with PutBuffer once nothing
// references it. On error the result is nil.
func (fr *FrameReader) Read() ([]byte, error) {
	buf := fr.tail
	if buf == nil {
		buf = GetBuffer()
	} else {
		rest := buf[fr.off:]
		if n, ok := frameLen(rest); ok && n >= HeaderLen && n < len(rest) {
			fr.off += n
			return append(GetBuffer(), rest[:n]...), nil
		}
		// The tail's last bytes, a whole frame or the start of one, move
		// to its front, where the loop below returns, completes or
		// rejects them.
		buf = buf[:copy(buf, rest)]
		fr.tail, fr.off = nil, 0
	}
	for {
		if n, ok := frameLen(buf); ok {
			if n < HeaderLen {
				fr.err = ErrBadLength
				PutBuffer(buf)
				return nil, fr.err
			}
			if n == len(buf) {
				return buf, nil
			}
			if n < len(buf) {
				fr.tail, fr.off = buf, n
				return append(GetBuffer(), buf[:n]...), nil
			}
			if n > cap(buf) {
				grown := make([]byte, len(buf), n)
				copy(grown, buf)
				PutBuffer(buf)
				buf = grown
			}
		}
		if fr.err != nil {
			if fr.err == io.EOF && len(buf) > 0 {
				fr.err = io.ErrUnexpectedEOF
			}
			PutBuffer(buf)
			return nil, fr.err
		}
		var m int
		m, fr.err = fr.r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
	}
}

// ReadMessage reads the next frame and decodes it. The message does not
// alias the frame (Unmarshal copies variable-length fields), whose buffer
// goes back to the pool.
func (fr *FrameReader) ReadMessage() (Header, Message, error) {
	raw, err := fr.Read()
	if err != nil {
		return Header{}, nil, err
	}
	defer PutBuffer(raw)
	return Unmarshal(raw)
}

// frameLen reads the length field of the frame b starts with, once b
// holds its header.
func frameLen(b []byte) (int, bool) {
	if len(b) < HeaderLen {
		return 0, false
	}
	return int(binary.BigEndian.Uint16(b[2:4])), true
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
