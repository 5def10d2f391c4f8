package netem

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// Transport abstracts the byte-stream network used for control-plane
// connections, so the injector proxy, switches, and controllers can run
// over real loopback TCP (fidelity) or in-memory pipes (fast, hermetic
// tests) without code changes.
type Transport interface {
	// Listen starts accepting connections on addr.
	Listen(addr string) (net.Listener, error)
	// Dial connects to addr.
	Dial(addr string) (net.Conn, error)
}

// TCPTransport is the real-network transport.
type TCPTransport struct{}

var _ Transport = TCPTransport{}

// Listen implements Transport using net.Listen("tcp", addr).
func (TCPTransport) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// Dial implements Transport using net.Dial("tcp", addr).
func (TCPTransport) Dial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}

// ErrAddrInUse is returned when an in-memory address is already bound.
var ErrAddrInUse = errors.New("netem: address already in use")

// ErrConnRefused is returned when nothing listens on a dialed in-memory
// address.
var ErrConnRefused = errors.New("netem: connection refused")

// MemTransport is an in-process transport. Addresses are arbitrary strings
// scoped to one MemTransport instance. The default connection pair is
// net.Pipe (synchronous rendezvous, the strictest ordering for tests);
// NewBufferedMemTransport swaps in ring-buffered pairs so writers are
// decoupled from reader pace — what a kernel socket buffer provides on a
// real network, and what batched flushes need to not stall per frame.
type MemTransport struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	newPair   func() (client, server net.Conn)
}

var _ Transport = (*MemTransport)(nil)

// NewMemTransport returns an empty in-memory network over net.Pipe pairs.
func NewMemTransport() *MemTransport {
	return &MemTransport{
		listeners: make(map[string]*memListener),
		newPair:   func() (net.Conn, net.Conn) { return net.Pipe() },
	}
}

// NewBufferedMemTransport returns an in-memory network whose connections
// buffer up to size bytes per direction (size <= 0 uses
// DefaultBufConnSize). Each direction's ring starts empty and grows on
// demand, so size is a limit, not an up-front allocation.
func NewBufferedMemTransport(size int) *MemTransport {
	return &MemTransport{
		listeners: make(map[string]*memListener),
		newPair:   func() (net.Conn, net.Conn) { return newBufConnPair(size) },
	}
}

// Listen implements Transport.
func (t *MemTransport) Listen(addr string) (net.Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &memListener{
		transport: t,
		addr:      addr,
		acceptCh:  make(chan net.Conn),
		closed:    make(chan struct{}),
	}
	t.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (t *MemTransport) Dial(addr string) (net.Conn, error) {
	t.mu.Lock()
	l := t.listeners[addr]
	t.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	client, server := t.newPair()
	select {
	case l.acceptCh <- server:
		return client, nil
	case <-l.closed:
		_ = client.Close()
		_ = server.Close()
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
}

type memListener struct {
	transport *MemTransport
	addr      string
	acceptCh  chan net.Conn
	closeOnce sync.Once
	closed    chan struct{}
}

var _ net.Listener = (*memListener)(nil)

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.acceptCh:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.transport.mu.Lock()
		if l.transport.listeners[l.addr] == l {
			delete(l.transport.listeners, l.addr)
		}
		l.transport.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }
