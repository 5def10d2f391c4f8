package evloop

import "io"

// DefaultFlushChunk caps how many coalesced bytes one Flush writes per
// dst.Write call, bounding the persistent flush buffer.
const DefaultFlushChunk = 256 << 10

// Coalescer batches a pending-frame list into as few dst.Write calls as
// its chunk size allows — usually one. It owns a persistent buffer, so one
// Coalescer per event loop amortizes the allocation across every flush.
// The buffer is not preallocated: it grows to what the flushes need (about
// one chunk at most), and a two-switch testbed's loop needs very little.
// Not safe for concurrent use; it belongs to a single loop goroutine.
type Coalescer struct {
	buf   []byte
	chunk int
}

// NewCoalescer builds a coalescer with the given chunk bound (<= 0 uses
// DefaultFlushChunk).
func NewCoalescer(chunk int) *Coalescer {
	if chunk <= 0 {
		chunk = DefaultFlushChunk
	}
	return &Coalescer{chunk: chunk}
}

// Flush writes frames to dst coalesced into chunk-bounded writes. Every
// frame is passed to recycle (if non-nil) regardless of outcome, so pooled
// buffers are never leaked. It returns how many frames landed in
// successful writes and the first write error; on error the unwritten tail
// is still recycled but not written.
func (c *Coalescer) Flush(dst io.Writer, frames [][]byte, recycle func([]byte)) (written int, err error) {
	if len(frames) == 0 {
		return 0, nil
	}
	pending := 0
	buf := c.buf[:0]
	flushBuf := func() {
		if err != nil || len(buf) == 0 {
			return
		}
		if _, werr := dst.Write(buf); werr != nil {
			err = werr
		} else {
			written += pending
		}
		pending = 0
		buf = buf[:0]
	}
	for _, fr := range frames {
		if err == nil {
			if len(buf) > 0 && len(buf)+len(fr) > c.chunk {
				flushBuf()
			}
			if err == nil {
				buf = append(buf, fr...)
				pending++
			}
		}
		if recycle != nil {
			recycle(fr)
		}
	}
	flushBuf()
	c.buf = buf[:0]
	return written, err
}
