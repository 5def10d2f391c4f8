package netem

import (
	"io"
	"net"
	"sync"
	"time"
)

// DefaultBufConnSize is the per-direction ring capacity of buffered
// in-memory connections: large enough that a batched flush of a full
// injector shard never rendezvous-blocks on a prompt reader.
const DefaultBufConnSize = 64 << 10

// bufRing is one direction of a buffered in-memory connection: a
// fixed-capacity byte ring guarded by a mutex with reader/writer conds.
// Unlike net.Pipe there is no rendezvous — Write returns as soon as the
// bytes are buffered, so a batching writer (the injector's sharded flush)
// is decoupled from its reader's pace up to the ring capacity.
type bufRing struct {
	mu     sync.Mutex
	rd, wr *sync.Cond
	buf    []byte
	start  int  // read position
	n      int  // bytes buffered
	closed bool // no further writes; reads drain then EOF
	rdGone bool // reader side closed; writes fail immediately
}

func newBufRing(size int) *bufRing {
	r := &bufRing{buf: make([]byte, size)}
	r.rd = sync.NewCond(&r.mu)
	r.wr = sync.NewCond(&r.mu)
	return r
}

// write appends p, blocking while the ring is full. It returns early with
// io.ErrClosedPipe once either side closes.
func (r *bufRing) write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	written := 0
	for len(p) > 0 {
		if r.closed || r.rdGone {
			return written, io.ErrClosedPipe
		}
		free := len(r.buf) - r.n
		if free == 0 {
			r.wr.Wait()
			continue
		}
		chunk := len(p)
		if chunk > free {
			chunk = free
		}
		pos := (r.start + r.n) % len(r.buf)
		c := copy(r.buf[pos:], p[:chunk])
		if c < chunk {
			copy(r.buf, p[c:chunk])
		}
		r.n += chunk
		written += chunk
		p = p[chunk:]
		r.rd.Signal()
	}
	return written, nil
}

// read fills p with up to n buffered bytes, blocking while empty.
func (r *bufRing) read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == 0 {
		if r.closed || r.rdGone {
			return 0, io.EOF
		}
		r.rd.Wait()
	}
	chunk := len(p)
	if chunk > r.n {
		chunk = r.n
	}
	c := copy(p, r.buf[r.start:min(r.start+chunk, len(r.buf))])
	if c < chunk {
		copy(p[c:], r.buf[:chunk-c])
	}
	r.start = (r.start + chunk) % len(r.buf)
	r.n -= chunk
	r.wr.Signal()
	return chunk, nil
}

// closeWrite marks the writer side done: pending bytes stay readable, then
// readers see EOF.
func (r *bufRing) closeWrite() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.rd.Broadcast()
	r.wr.Broadcast()
}

// closeRead abandons the reader side: buffered bytes are discarded and
// writers fail immediately.
func (r *bufRing) closeRead() {
	r.mu.Lock()
	r.rdGone = true
	r.n = 0
	r.mu.Unlock()
	r.rd.Broadcast()
	r.wr.Broadcast()
}

// bufConn is one endpoint of a buffered in-memory connection pair.
type bufConn struct {
	in, out   *bufRing // in: peer->us, out: us->peer
	closeOnce sync.Once
	local     string
}

var _ net.Conn = (*bufConn)(nil)

// newBufConnPair returns two connected endpoints, each direction buffered
// with size bytes.
func newBufConnPair(size int) (net.Conn, net.Conn) {
	if size <= 0 {
		size = DefaultBufConnSize
	}
	ab := newBufRing(size)
	ba := newBufRing(size)
	a := &bufConn{in: ba, out: ab, local: "bufconn:a"}
	b := &bufConn{in: ab, out: ba, local: "bufconn:b"}
	return a, b
}

func (c *bufConn) Read(p []byte) (int, error)  { return c.in.read(p) }
func (c *bufConn) Write(p []byte) (int, error) { return c.out.write(p) }

// Close tears down both directions: our writes end (peer drains then sees
// EOF) and our reads are abandoned (peer writes fail).
func (c *bufConn) Close() error {
	c.closeOnce.Do(func() {
		c.out.closeWrite()
		c.in.closeRead()
	})
	return nil
}

func (c *bufConn) LocalAddr() net.Addr  { return memAddr(c.local) }
func (c *bufConn) RemoteAddr() net.Addr { return memAddr(c.local) }

// Deadlines are not implemented: the transports' users (the injector's and
// switch host's connection readers, the controller's framer) use blocking
// reads terminated by Close.
func (c *bufConn) SetDeadline(time.Time) error      { return nil }
func (c *bufConn) SetReadDeadline(time.Time) error  { return nil }
func (c *bufConn) SetWriteDeadline(time.Time) error { return nil }
