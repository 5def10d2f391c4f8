// Package conformance validates an OpenFlow 1.0 switch implementation
// against the protocol's specified behaviours, in the style of the OFTest
// suite the paper cites (§IX: ATTAIN subsumes OFTest's methodology of
// simulating control and data plane elements around a switch under test).
//
// The harness plays the controller on an established control connection
// and exchanges data-plane frames through caller-provided port taps, so it
// can exercise any switch — the in-tree switchsim, or (over a TCP
// transport) an external implementation.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"attain/internal/dataplane"
	"attain/internal/netaddr"
	"attain/internal/openflow"
)

// PortIO is a data-plane tap on one switch port: Send injects a frame into
// the switch as if it arrived on the wire; Recv yields frames the switch
// transmitted out of the port.
type PortIO struct {
	Send func(frame []byte)
	Recv <-chan []byte
}

// Config describes the switch under test.
type Config struct {
	// Conn is the accepted control connection, before any handshake.
	Conn net.Conn
	// Ports taps at least two data-plane ports.
	Ports map[uint16]PortIO
	// Timeout bounds each expected event (default 2s wall).
	Timeout time.Duration
	// ExpectedDPID, when non-zero, is checked against FEATURES_REPLY.
	ExpectedDPID uint64
}

// Result is one check's outcome.
type Result struct {
	Name string
	Err  error
}

// Passed reports whether the check succeeded.
func (r Result) Passed() bool { return r.Err == nil }

// Summary counts passed and failed checks.
func Summary(results []Result) (passed, failed int) {
	for _, r := range results {
		if r.Passed() {
			passed++
		} else {
			failed++
		}
	}
	return passed, failed
}

// Format renders results as a report.
func Format(results []Result) string {
	var b bytes.Buffer
	for _, r := range results {
		status := "PASS"
		if !r.Passed() {
			status = fmt.Sprintf("FAIL (%v)", r.Err)
		}
		fmt.Fprintf(&b, "%-34s %s\n", r.Name, status)
	}
	passed, failed := Summary(results)
	fmt.Fprintf(&b, "%d passed, %d failed\n", passed, failed)
	return b.String()
}

// harness drives the checks.
type harness struct {
	cfg      Config
	msgs     chan framed
	readErr  chan error
	xid      uint32
	features *openflow.FeaturesReply
}

type framed struct {
	hdr openflow.Header
	msg openflow.Message
}

// Run executes the full conformance suite and returns per-check results.
// Checks run in order on one connection; later checks assume earlier
// cleanup (a flow-table wipe between checks) succeeded.
func Run(cfg Config) []Result {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	h := &harness{
		cfg:     cfg,
		msgs:    make(chan framed, 256),
		readErr: make(chan error, 1),
	}
	go h.readLoop()

	checks := []struct {
		name string
		fn   func() error
	}{
		{"handshake/hello-features", h.checkHandshake},
		{"echo/reply-matches", h.checkEcho},
		{"barrier/reply-xid", h.checkBarrier},
		{"config/get-set", h.checkConfig},
		{"packet-in/table-miss", h.checkPacketInOnMiss},
		{"packet-out/data", h.checkPacketOutData},
		{"packet-out/buffered", h.checkPacketOutBuffered},
		{"flow/add-forwards", h.checkFlowAddForwards},
		{"flow/modify-actions", h.checkModify},
		{"flow/idle-expiry", h.checkIdleExpiry},
		{"flow/priority-order", h.checkPriority},
		{"flow/delete", h.checkDelete},
		{"flow/delete-strict", h.checkDeleteStrict},
		{"flow/check-overlap", h.checkOverlap},
		{"flow/stats", h.checkFlowStats},
		{"stats/desc-table-port", h.checkMetaStats},
	}
	results := make([]Result, 0, len(checks))
	for _, c := range checks {
		err := c.fn()
		results = append(results, Result{Name: c.name, Err: err})
		if c.name == "handshake/hello-features" && err != nil {
			// Nothing else can run without a handshake.
			break
		}
		if err2 := h.wipeFlows(); err2 != nil && err == nil {
			results[len(results)-1].Err = fmt.Errorf("cleanup: %w", err2)
		}
	}
	return results
}

func (h *harness) readLoop() {
	for {
		hdr, msg, err := openflow.ReadMessage(h.cfg.Conn)
		if err != nil {
			h.readErr <- err
			close(h.msgs)
			return
		}
		h.msgs <- framed{hdr, msg}
	}
}

func (h *harness) nextXid() uint32 {
	h.xid++
	return h.xid
}

func (h *harness) send(msg openflow.Message) (uint32, error) {
	xid := h.nextXid()
	return xid, openflow.WriteMessage(h.cfg.Conn, xid, msg)
}

// expect waits for the next control message satisfying pred, answering
// echo requests along the way.
func (h *harness) expect(what string, pred func(framed) bool) (framed, error) {
	deadline := time.After(h.cfg.Timeout)
	for {
		select {
		case fr, ok := <-h.msgs:
			if !ok {
				return framed{}, fmt.Errorf("connection closed waiting for %s", what)
			}
			if er, isEcho := fr.msg.(*openflow.EchoRequest); isEcho {
				_ = openflow.WriteMessage(h.cfg.Conn, fr.hdr.Xid, &openflow.EchoReply{Data: er.Data})
				continue
			}
			if pred(fr) {
				return fr, nil
			}
			// Unrelated asynchronous message (e.g. a stray packet-in):
			// keep waiting.
		case <-deadline:
			return framed{}, fmt.Errorf("timed out waiting for %s", what)
		}
	}
}

// expectType waits for a specific message type.
func (h *harness) expectType(t openflow.Type) (framed, error) {
	return h.expect(t.String(), func(fr framed) bool { return fr.hdr.Type == t })
}

// drainControl discards buffered asynchronous control messages.
func (h *harness) drainControl() {
	for {
		select {
		case <-h.msgs:
		default:
			return
		}
	}
}

// expectFrame waits for a data-plane frame on a port.
func (h *harness) expectFrame(port uint16) ([]byte, error) {
	io, ok := h.cfg.Ports[port]
	if !ok {
		return nil, fmt.Errorf("no tap on port %d", port)
	}
	select {
	case frame := <-io.Recv:
		return frame, nil
	case <-time.After(h.cfg.Timeout):
		return nil, fmt.Errorf("timed out waiting for a frame on port %d", port)
	}
}

// expectNoFrame asserts silence on a port for a short window.
func (h *harness) expectNoFrame(port uint16, window time.Duration) error {
	io, ok := h.cfg.Ports[port]
	if !ok {
		return fmt.Errorf("no tap on port %d", port)
	}
	select {
	case <-io.Recv:
		return fmt.Errorf("unexpected frame on port %d", port)
	case <-time.After(window):
		return nil
	}
}

// drainFrames empties all port taps.
func (h *harness) drainFrames() {
	for _, io := range h.cfg.Ports {
		for {
			select {
			case <-io.Recv:
			default:
				goto next
			}
		}
	next:
	}
}

// twoPorts picks two distinct tapped ports (sorted for determinism).
func (h *harness) twoPorts() (uint16, uint16, error) {
	var ports []uint16
	for p := range h.cfg.Ports {
		ports = append(ports, p)
	}
	if len(ports) < 2 {
		return 0, 0, errors.New("conformance needs at least two tapped ports")
	}
	a, b := ports[0], ports[1]
	if a > b {
		a, b = b, a
	}
	return a, b, nil
}

// testFrame builds a distinctive ICMP frame.
func testFrame(seq uint16) []byte {
	src := netaddr.MAC{0x0a, 0, 0, 0, 0, 0x11}
	dst := netaddr.MAC{0x0a, 0, 0, 0, 0, 0x22}
	echo := &dataplane.ICMPEcho{IsRequest: true, Ident: 0xBEEF, Seq: seq, Payload: []byte("conformance")}
	ip := &dataplane.IPv4{
		TTL: 64, Protocol: dataplane.ProtoICMP,
		Src: netaddr.IPv4{192, 0, 2, 1}, Dst: netaddr.IPv4{192, 0, 2, 2},
		Payload: echo.Marshal(),
	}
	return (&dataplane.Ethernet{Dst: dst, Src: src, EtherType: dataplane.EtherTypeIPv4, Payload: ip.Marshal()}).Marshal()
}

// wipeFlows deletes every flow and waits for the barrier.
func (h *harness) wipeFlows() error {
	if h.features == nil {
		return nil
	}
	if _, err := h.send(&openflow.FlowMod{
		Match:    openflow.MatchAll(),
		Command:  openflow.FlowModDelete,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
	}); err != nil {
		return err
	}
	xid, err := h.send(&openflow.BarrierRequest{})
	if err != nil {
		return err
	}
	_, err = h.expect("BARRIER_REPLY", func(fr framed) bool {
		return fr.hdr.Type == openflow.TypeBarrierReply && fr.hdr.Xid == xid
	})
	h.drainFrames()
	h.drainControl()
	return err
}
