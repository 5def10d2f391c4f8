// Package controller implements the SDN controller substrate: a connection
// framework (listen, handshake, dispatch) and three learning-switch
// application profiles that reproduce the behavioural differences among
// Floodlight's Forwarding module, POX's forwarding.l2_learning, and Ryu's
// simple_switch that drive the divergent attack outcomes in the ATTAIN
// paper's evaluation.
package controller

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"attain/internal/clock"
	"attain/internal/netem"
	"attain/internal/openflow"
	"attain/internal/telemetry"
)

// App is a controller application receiving switch events.
type App interface {
	// Name identifies the application profile.
	Name() string
	// PacketIn handles one PACKET_IN from a connected switch.
	PacketIn(sw *SwitchConn, pi *openflow.PacketIn)
}

// ConnHook is an optional App extension notified of switch connections.
type ConnHook interface {
	// SwitchUp fires after the handshake with a switch completes.
	SwitchUp(sw *SwitchConn)
	// SwitchDown fires when a switch connection is lost.
	SwitchDown(sw *SwitchConn)
}

// StatusHook is an optional App extension notified of PORT_STATUS events.
// Topology discovery uses it to react to link churn.
type StatusHook interface {
	// PortStatus handles one PORT_STATUS from a connected switch.
	PortStatus(sw *SwitchConn, ps *openflow.PortStatus)
}

// Config describes a controller instance.
type Config struct {
	// Name is a human-readable identifier, e.g. "c1".
	Name string
	// ListenAddr is where switches connect.
	ListenAddr string
	// Transport supplies the control-plane network.
	Transport netem.Transport
	// App is the network application driving forwarding decisions.
	App App
	// ProcessingDelay models per-PACKET_IN controller compute time.
	ProcessingDelay time.Duration
	// SingleThreaded serializes all PACKET_IN handling across every switch
	// connection, modelling single-event-loop controllers such as POX.
	SingleThreaded bool
	// HandshakeTimeout bounds the HELLO/FEATURES exchange (default 5s).
	HandshakeTimeout time.Duration
	// Telemetry, when non-nil, receives packet-in/flow-mod counters and
	// switch session trace events. Nil disables collection.
	Telemetry *telemetry.Telemetry
}

// Stats counts controller activity.
type Stats struct {
	Connections    uint64
	PacketIns      uint64
	FlowModsSent   uint64
	PacketOutsSent uint64
}

// Controller accepts switch connections and dispatches OpenFlow events to
// its App.
type Controller struct {
	cfg  Config
	clk  clock.Clock
	tele *telemetry.Telemetry
	ctrs ctrlCounters

	mu       sync.Mutex
	ln       net.Listener
	switches map[uint64]*SwitchConn
	conns    map[*SwitchConn]struct{}
	// connections counts accepted switch sessions; the other Stats
	// quantities live in ctrs.
	connections uint64
	started     bool

	// eventSem serializes PACKET_IN when SingleThreaded. It is a one-slot
	// channel, not a mutex, because it is held across the processing-delay
	// sleep: a goroutine waiting on a channel is durably blocked, which
	// lets a virtual clock advance past that sleep.
	eventSem chan struct{}

	xid  atomic.Uint32
	stop chan struct{}
	wg   sync.WaitGroup
}

// New creates a controller. Call Start to begin listening.
func New(cfg Config, clk clock.Clock) *Controller {
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	c := &Controller{
		cfg:      cfg,
		clk:      clk,
		tele:     cfg.Telemetry,
		switches: make(map[uint64]*SwitchConn),
		conns:    make(map[*SwitchConn]struct{}),
		eventSem: make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	prefix := "controller." + cfg.Name
	c.ctrs.packetIns = c.tele.Live(&c.ctrs.live[0], prefix+".packet_ins")
	c.ctrs.flowModsSent = c.tele.Live(&c.ctrs.live[1], prefix+".flow_mods_sent")
	c.ctrs.packetOutsSent = c.tele.Live(&c.ctrs.live[2], prefix+".packet_outs_sent")
	return c
}

// ctrlCounters is the controller's one record of packet-ins, flow-mods
// sent and packet-outs sent: they count whether or not telemetry is on,
// Stats reads them, and telemetry registers them when it is on.
type ctrlCounters struct {
	packetIns      *telemetry.Counter
	flowModsSent   *telemetry.Counter
	packetOutsSent *telemetry.Counter
	live           [3]telemetry.Counter
}

// Name returns the controller name.
func (c *Controller) Name() string { return c.cfg.Name }

// Addr returns the bound listen address (valid after Start).
func (c *Controller) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return c.cfg.ListenAddr
	}
	return c.ln.Addr().String()
}

// Stats returns a snapshot of the activity counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	conns := c.connections
	c.mu.Unlock()
	return Stats{
		Connections:    conns,
		PacketIns:      c.ctrs.packetIns.Value(),
		FlowModsSent:   c.ctrs.flowModsSent.Value(),
		PacketOutsSent: c.ctrs.packetOutsSent.Value(),
	}
}

// Switches returns the currently connected switches keyed by DPID.
func (c *Controller) Switches() map[uint64]*SwitchConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64]*SwitchConn, len(c.switches))
	for k, v := range c.switches {
		out[k] = v
	}
	return out
}

// SwitchCount reports how many switches have completed the handshake —
// cheaper than Switches() for convergence polling loops (no map copy).
func (c *Controller) SwitchCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.switches)
}

// SwitchesInto appends every connected switch to buf (reset to length 0
// first) and returns it, so periodic sweeps like the fabric probe loop
// reuse one slice instead of copying the map every round. Order is map
// order — callers needing determinism must sort.
func (c *Controller) SwitchesInto(buf []*SwitchConn) []*SwitchConn {
	buf = buf[:0]
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sw := range c.switches {
		buf = append(buf, sw)
	}
	return buf
}

// Start begins accepting switch connections.
func (c *Controller) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return errors.New("controller: already started")
	}
	ln, err := c.cfg.Transport.Listen(c.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("controller listen: %w", err)
	}
	c.ln = ln
	c.started = true
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.acceptLoop(ln)
	}()
	return nil
}

// Stop closes the listener and all switch connections and waits for the
// controller's goroutines.
func (c *Controller) Stop() {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return
	}
	select {
	case <-c.stop:
		c.mu.Unlock()
		c.wg.Wait()
		return
	default:
	}
	close(c.stop)
	ln := c.ln
	conns := make([]*SwitchConn, 0, len(c.conns))
	for sw := range c.conns {
		conns = append(conns, sw)
	}
	c.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, sw := range conns {
		sw.close()
	}
	c.wg.Wait()
}

func (c *Controller) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.serve(conn)
		}()
	}
}

// serve runs one switch session to completion.
func (c *Controller) serve(conn net.Conn) {
	sw := &SwitchConn{ctrl: c, conn: conn}
	c.mu.Lock()
	c.conns[sw] = struct{}{}
	c.mu.Unlock()
	defer func() {
		sw.close()
		c.mu.Lock()
		delete(c.conns, sw)
		c.mu.Unlock()
	}()

	if err := c.handshake(sw); err != nil {
		return
	}
	c.mu.Lock()
	c.connections++
	c.switches[sw.dpid] = sw
	c.mu.Unlock()
	if c.tele.Enabled() {
		c.tele.Emit(telemetry.Event{
			Layer: telemetry.LayerController, Kind: telemetry.KindSession,
			Node: c.cfg.Name, Detail: fmt.Sprintf("switch dpid=%d up", sw.dpid),
		})
	}
	defer func() {
		c.mu.Lock()
		if c.switches[sw.dpid] == sw {
			delete(c.switches, sw.dpid)
		}
		c.mu.Unlock()
		if c.tele.Enabled() {
			c.tele.Emit(telemetry.Event{
				Layer: telemetry.LayerController, Kind: telemetry.KindSession,
				Node: c.cfg.Name, Detail: fmt.Sprintf("switch dpid=%d down", sw.dpid),
			})
		}
		if hook, ok := c.cfg.App.(ConnHook); ok {
			hook.SwitchDown(sw)
		}
	}()
	if hook, ok := c.cfg.App.(ConnHook); ok {
		hook.SwitchUp(sw)
	}

	// One pooled read buffer serves the whole session (decoded messages do
	// not alias it), keeping the per-switch read loop allocation-free at
	// the framing layer.
	mr := openflow.NewMessageReader(sw.conn)
	defer mr.Close()
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		hdr, msg, err := mr.Read()
		if err != nil {
			return
		}
		c.dispatch(sw, hdr, msg)
	}
}

// handshake performs HELLO exchange followed by FEATURES_REQUEST/REPLY.
func (c *Controller) handshake(sw *SwitchConn) error {
	if err := sw.Send(&openflow.Hello{}); err != nil {
		return err
	}
	deadline := c.clk.Now().Add(c.cfg.HandshakeTimeout)
	sawHello := false
	for {
		if c.clk.Now().After(deadline) {
			return errors.New("controller: handshake timeout")
		}
		_, msg, err := openflow.ReadMessage(sw.conn)
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case *openflow.Hello:
			if sawHello {
				continue
			}
			sawHello = true
			if err := sw.Send(&openflow.FeaturesRequest{}); err != nil {
				return err
			}
		case *openflow.FeaturesReply:
			if !sawHello {
				return errors.New("controller: FEATURES_REPLY before HELLO")
			}
			sw.mu.Lock()
			sw.dpid = m.DatapathID
			sw.ports = append([]openflow.PhyPort(nil), m.Ports...)
			sw.mu.Unlock()
			return nil
		case *openflow.EchoRequest:
			if err := sw.Send(&openflow.EchoReply{Data: m.Data}); err != nil {
				return err
			}
		default:
			// Ignore anything else during handshake.
		}
	}
}

// dispatch handles one post-handshake message from a switch.
func (c *Controller) dispatch(sw *SwitchConn, hdr openflow.Header, msg openflow.Message) {
	switch m := msg.(type) {
	case *openflow.EchoRequest:
		_ = sw.sendXid(hdr.Xid, &openflow.EchoReply{Data: m.Data})
	case *openflow.PacketIn:
		c.ctrs.packetIns.Inc()
		if c.cfg.SingleThreaded {
			c.eventSem <- struct{}{}
		}
		if c.cfg.ProcessingDelay > 0 {
			c.clk.Sleep(c.cfg.ProcessingDelay)
		}
		c.cfg.App.PacketIn(sw, m)
		if c.cfg.SingleThreaded {
			<-c.eventSem
		}
	case *openflow.PortStatus:
		if hook, ok := c.cfg.App.(StatusHook); ok {
			hook.PortStatus(sw, m)
		}
	case *openflow.FlowRemoved, *openflow.ErrorMsg,
		*openflow.EchoReply, *openflow.BarrierReply, *openflow.StatsReply,
		*openflow.GetConfigReply:
		// Accepted and ignored by the base framework.
	default:
	}
}

// SwitchConn is the controller's view of one connected switch.
type SwitchConn struct {
	ctrl *Controller
	conn net.Conn

	mu      sync.Mutex
	dpid    uint64
	ports   []openflow.PhyPort
	writeMu sync.Mutex
	closed  bool
}

// DPID returns the switch datapath id (valid after handshake).
func (sw *SwitchConn) DPID() uint64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.dpid
}

// Ports returns the switch's ports as reported in FEATURES_REPLY.
func (sw *SwitchConn) Ports() []openflow.PhyPort {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return append([]openflow.PhyPort(nil), sw.ports...)
}

// Send writes one message with a fresh transaction id.
func (sw *SwitchConn) Send(msg openflow.Message) error {
	return sw.sendXid(sw.ctrl.xid.Add(1), msg)
}

func (sw *SwitchConn) sendXid(xid uint32, msg openflow.Message) error {
	// Marshal into a pooled buffer; the conn has copied the bytes by the
	// time Write returns, so the buffer is recycled before unlocking.
	buf, err := openflow.AppendMessage(openflow.GetBuffer(), xid, msg)
	if err != nil {
		openflow.PutBuffer(buf)
		return err
	}
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	defer openflow.PutBuffer(buf)
	if sw.closed {
		return net.ErrClosed
	}
	_, err = sw.conn.Write(buf)
	if err == nil {
		switch msg.(type) {
		case *openflow.FlowMod:
			sw.ctrl.ctrs.flowModsSent.Inc()
		case *openflow.PacketOut:
			sw.ctrl.ctrs.packetOutsSent.Inc()
		}
	}
	return err
}

// SendBatch marshals msgs into one pooled buffer and writes them with a
// single lock acquisition and a single Conn.Write — the control-plane
// analogue of the shard cores' coalesced flushes. The fabric probe loop
// uses it to emit one LLDP PACKET_OUT per port in one write per switch.
// Each message gets a fresh transaction id.
func (sw *SwitchConn) SendBatch(msgs []openflow.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	buf := openflow.GetBuffer()
	var err error
	for _, msg := range msgs {
		if buf, err = openflow.AppendMessage(buf, sw.ctrl.xid.Add(1), msg); err != nil {
			openflow.PutBuffer(buf)
			return err
		}
	}
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	defer openflow.PutBuffer(buf)
	if sw.closed {
		return net.ErrClosed
	}
	if _, err = sw.conn.Write(buf); err != nil {
		return err
	}
	var flowMods, packetOuts uint64
	for _, msg := range msgs {
		switch msg.(type) {
		case *openflow.FlowMod:
			flowMods++
		case *openflow.PacketOut:
			packetOuts++
		}
	}
	sw.ctrl.ctrs.flowModsSent.Add(flowMods)
	sw.ctrl.ctrs.packetOutsSent.Add(packetOuts)
	return nil
}

// Close tears the connection down from the controller side; the switch
// will observe the loss and redial. Primarily for tests and fault
// injection.
func (sw *SwitchConn) Close() { sw.close() }

func (sw *SwitchConn) close() {
	sw.writeMu.Lock()
	sw.closed = true
	sw.writeMu.Unlock()
	_ = sw.conn.Close()
}
