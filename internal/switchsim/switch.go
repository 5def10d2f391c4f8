package switchsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"attain/internal/clock"
	"attain/internal/dataplane"
	"attain/internal/netaddr"
	"attain/internal/netem"
	"attain/internal/openflow"
	"attain/internal/telemetry"
)

// FailMode selects the switch behaviour when the control connection is
// lost, mirroring Open vSwitch's fail-mode setting.
type FailMode int

const (
	// FailSecure drops packets that miss the flow table while
	// disconnected; existing entries keep forwarding until they expire.
	FailSecure FailMode = iota + 1
	// FailSafe (OVS "standalone") reverts to independent MAC-learning
	// forwarding while disconnected.
	FailSafe
)

// String returns "secure" or "safe".
func (m FailMode) String() string {
	switch m {
	case FailSecure:
		return "secure"
	case FailSafe:
		return "safe"
	default:
		return "unknown"
	}
}

// Config describes one switch.
type Config struct {
	// Name is a human-readable identifier, e.g. "s1".
	Name string
	// DPID is the OpenFlow datapath id.
	DPID uint64
	// ControllerAddr is dialed via Transport for the control channel.
	ControllerAddr string
	// Transport supplies the control-plane network.
	Transport netem.Transport
	// FailMode selects disconnected behaviour (default FailSecure).
	FailMode FailMode
	// NBuffers is the PACKET_IN buffer capacity (default 256).
	NBuffers int
	// MissSendLen caps PACKET_IN payload bytes when buffering (default 128).
	MissSendLen uint16
	// TableSize caps the flow table (default 64k).
	TableSize int
	// EchoInterval is the liveness probe period (default 2s).
	EchoInterval time.Duration
	// EchoTimeout declares the connection dead after this silence
	// (default 3 echo intervals).
	EchoTimeout time.Duration
	// ReconnectInterval paces redial attempts (default 2s).
	ReconnectInterval time.Duration
	// HandshakeTimeout bounds the HELLO exchange (default 5s).
	HandshakeTimeout time.Duration
	// ExpiryInterval paces flow timeout sweeps (default 500ms).
	ExpiryInterval time.Duration
	// Telemetry, when non-nil, receives table install/evict, fail-mode
	// transition, and packet-in trace events plus per-switch counters. Nil
	// disables collection.
	Telemetry *telemetry.Telemetry
	// OnConnError, when non-nil, is called with every dial and handshake
	// failure of Host.Admit, including the admissions Start and the redial
	// path make. Fabric bring-up uses it to fail fast on resource
	// exhaustion (fd limits) instead of silently retrying forever. Called
	// from connection goroutines; must be safe for concurrent use.
	OnConnError func(error)
	// EmergencyFlows enables OpenFlow 1.0 §4.3 emergency flow entries
	// (OFPFF_EMERG): flow mods flagged emergency populate a separate
	// cache; on control-channel loss in fail-secure mode the normal
	// table is reset and only emergency entries forward. Off by default
	// because the paper's OVS 1.9.3 substrate (like OVS generally) does
	// not implement emergency mode — its fail-secure keeps normal flows
	// until they expire, which Table II depends on.
	EmergencyFlows bool
}

func (c *Config) setDefaults() {
	if c.FailMode == 0 {
		c.FailMode = FailSecure
	}
	if c.NBuffers == 0 {
		c.NBuffers = 256
	}
	if c.MissSendLen == 0 {
		c.MissSendLen = 128
	}
	if c.EchoInterval <= 0 {
		c.EchoInterval = 2 * time.Second
	}
	if c.EchoTimeout <= 0 {
		c.EchoTimeout = 3 * c.EchoInterval
	}
	if c.ReconnectInterval <= 0 {
		c.ReconnectInterval = 2 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.ExpiryInterval <= 0 {
		c.ExpiryInterval = 500 * time.Millisecond
	}
}

// Stats counts switch activity.
type Stats struct {
	RxFrames            uint64
	TxFrames            uint64
	TableMisses         uint64
	PacketInsSent       uint64
	PacketOutsApplied   uint64
	FlowModsApplied     uint64
	DroppedDisconnected uint64
	StandaloneForwards  uint64
	Reconnects          uint64
}

// Switch is a simulated OpenFlow 1.0 switch datapath plus its controller
// channel.
type Switch struct {
	cfg   Config
	clk   clock.Clock
	table *Table
	emerg *Table
	bufs  *bufferStore
	tele  *telemetry.Telemetry
	ctrs  swCounters

	mu        sync.Mutex
	ports     map[uint16]*swPort
	macTable  map[netaddr.MAC]uint16 // standalone learning table
	conn      *hostedConn
	connected bool
	stats     Stats

	xid  atomic.Uint32
	host *Host // the one-switch host Start admits to; nil until Start
}

type swPort struct {
	no   uint16
	name string
	mac  netaddr.MAC
	out  func([]byte)
	// adminDown reflects OFPPC_PORT_DOWN set via PORT_MOD.
	adminDown bool
	// linkDown models a lost carrier (SetLinkDown), reported as
	// OFPPS_LINK_DOWN in PORT_STATUS.
	linkDown bool
}

func (p *swPort) usable() bool { return !p.adminDown && !p.linkDown }

func (p *swPort) phy() openflow.PhyPort {
	desc := openflow.PhyPort{
		PortNo: p.no, HWAddr: p.mac, Name: p.name,
		Curr: openflow.PortFeature100MbFD | openflow.PortFeatureCopper,
	}
	if p.adminDown {
		desc.Config |= openflow.PortConfigPortDown
	}
	if p.linkDown {
		desc.State |= openflow.PortStateLinkDown
	}
	return desc
}

// New creates a switch; call AttachPort to wire ports, then either Start
// it (a one-switch host of its own) or Admit it to a shared Host.
func New(cfg Config, clk clock.Clock) *Switch {
	cfg.setDefaults()
	s := &Switch{
		cfg:      cfg,
		clk:      clk,
		table:    NewTable(cfg.TableSize),
		emerg:    NewTable(cfg.TableSize),
		bufs:     newBufferStore(cfg.NBuffers),
		tele:     cfg.Telemetry,
		ports:    make(map[uint16]*swPort),
		macTable: make(map[netaddr.MAC]uint16),
	}
	s.ctrs.bind(cfg.Telemetry, cfg.Name)
	return s
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.cfg.Name }

// DPID returns the datapath id.
func (s *Switch) DPID() uint64 { return s.cfg.DPID }

// Table exposes the flow table for inspection by tests and monitors.
func (s *Switch) Table() *Table { return s.table }

// Stats returns a snapshot of the activity counters.
func (s *Switch) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.TableMisses = s.ctrs.tableMisses.Value()
	st.PacketInsSent = s.ctrs.packetInsBuffered.Value()
	st.Reconnects = s.ctrs.reconnects.Value()
	return st
}

// Connected reports whether the control channel is currently up.
func (s *Switch) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connected
}

// AttachPort registers data-plane port no with the given transmit function
// and returns the function to call with frames arriving on that port.
func (s *Switch) AttachPort(no uint16, name string, out func([]byte)) func([]byte) {
	mac := netaddr.MAC{0x0e, 0x00, byte(s.cfg.DPID >> 8), byte(s.cfg.DPID), byte(no >> 8), byte(no)}
	s.mu.Lock()
	s.ports[no] = &swPort{no: no, name: name, mac: mac, out: out}
	s.mu.Unlock()
	return func(frame []byte) { s.input(no, frame) }
}

// Start connects the switch to its controller on a one-switch Host, the
// same event-loop control channel every fabric uses. The host's tick is
// derived from the switch's own timers (the shorter of ExpiryInterval and
// EchoInterval), so a Start()ed switch wakes no more often than its flow
// sweeps need. Start does not block: dial and handshake run on a
// host-tracked goroutine, and a failed admission redials every
// ReconnectInterval, reporting each failure through OnConnError.
func (s *Switch) Start() {
	s.mu.Lock()
	if s.host != nil {
		s.mu.Unlock()
		return
	}
	h := NewHost(HostConfig{
		Tick:      min(s.cfg.ExpiryInterval, s.cfg.EchoInterval),
		Clock:     s.clk,
		Telemetry: s.tele,
	})
	s.host = h
	s.mu.Unlock()
	h.Start()
	h.goTracked(func() {
		if h.Admit(s) != nil {
			h.RetryLater(s)
		}
	})
}

// Stop shuts the switch's host down, waits for its goroutines, and leaves
// the switch disconnected. Idempotent; a no-op on a switch never Started.
func (s *Switch) Stop() {
	s.mu.Lock()
	h := s.host
	s.mu.Unlock()
	if h == nil {
		return
	}
	h.Stop()
	s.setConnected(false, nil)
}

// ---- Data path ----

// SetLinkDown simulates carrier loss (or restoration) on a port: traffic
// stops flowing and the controller is notified with a PORT_STATUS message.
func (s *Switch) SetLinkDown(portNo uint16, down bool) {
	s.mu.Lock()
	p := s.ports[portNo]
	var (
		conn *hostedConn
		desc openflow.PhyPort
	)
	if p != nil {
		p.linkDown = down
		desc = p.phy()
		conn = s.conn
	}
	s.mu.Unlock()
	if p == nil || conn == nil {
		return
	}
	_ = conn.sendAsync(s.nextXid(), &openflow.PortStatus{
		Reason: openflow.PortStatusModify,
		Desc:   desc,
	})
}

// input processes one frame arriving on a data-plane port.
func (s *Switch) input(inPort uint16, frame []byte) {
	s.mu.Lock()
	s.stats.RxFrames++
	connected := s.connected
	mode := s.cfg.FailMode
	if p := s.ports[inPort]; p != nil && !p.usable() {
		// Frames on down ports are dropped at ingress (OFPPC_NO_RECV
		// behaviour is implied by PORT_DOWN).
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	fields, err := dataplane.Fields(inPort, frame)
	if err != nil {
		return
	}
	now := s.clk.Now()

	if connected {
		if e := s.table.Lookup(fields, len(frame), now); e != nil {
			s.applyActions(e.Actions, inPort, frame)
			return
		}
		s.ctrs.tableMisses.Inc()
		s.sendPacketIn(inPort, frame, openflow.PacketInReasonNoMatch, 0)
		return
	}

	switch mode {
	case FailSafe:
		s.standaloneForward(inPort, frame, fields)
	default: // FailSecure
		if s.cfg.EmergencyFlows {
			// Emergency mode (§4.3): only emergency entries forward.
			if e := s.emerg.Lookup(fields, len(frame), now); e != nil {
				s.applyActions(e.Actions, inPort, frame)
				return
			}
		} else if e := s.table.Lookup(fields, len(frame), now); e != nil {
			// OVS-style fail-secure: existing normal entries keep
			// forwarding until they expire.
			s.applyActions(e.Actions, inPort, frame)
			return
		}
		s.mu.Lock()
		s.stats.DroppedDisconnected++
		s.mu.Unlock()
		s.ctrs.tableMisses.Inc()
	}
}

// standaloneForward implements fail-safe MAC-learning forwarding.
func (s *Switch) standaloneForward(inPort uint16, frame []byte, fields openflow.FieldView) {
	s.mu.Lock()
	s.macTable[fields.DLSrc] = inPort
	outPort, known := s.macTable[fields.DLDst]
	s.stats.StandaloneForwards++
	s.mu.Unlock()
	if known && !fields.DLDst.IsMulticast() {
		s.outputTo(outPort, frame)
		return
	}
	s.flood(inPort, frame)
}

// flood transmits frame on every usable port except inPort.
func (s *Switch) flood(inPort uint16, frame []byte) {
	s.mu.Lock()
	outs := make([]*swPort, 0, len(s.ports))
	for _, p := range s.ports {
		if p.no != inPort && p.usable() {
			outs = append(outs, p)
		}
	}
	s.stats.TxFrames += uint64(len(outs))
	s.mu.Unlock()
	for _, p := range outs {
		p.out(frame)
	}
}

// outputTo transmits frame on one physical port.
func (s *Switch) outputTo(port uint16, frame []byte) {
	s.mu.Lock()
	p := s.ports[port]
	if p != nil && !p.usable() {
		p = nil
	}
	if p != nil {
		s.stats.TxFrames++
	}
	s.mu.Unlock()
	if p != nil {
		p.out(frame)
	}
}

// applyActions executes an OpenFlow 1.0 action list on a frame. Rewrites
// are applied to a private copy so upstream buffers are not mutated.
func (s *Switch) applyActions(actions []openflow.Action, inPort uint16, frame []byte) {
	work := append([]byte(nil), frame...)
	for _, a := range actions {
		switch act := a.(type) {
		case openflow.ActionOutput:
			s.output(act.Port, act.MaxLen, inPort, work)
		case openflow.ActionEnqueue:
			s.output(act.Port, 0, inPort, work)
		default:
			rewriteFrame(work, a)
		}
	}
}

// output resolves an OpenFlow output port (physical or virtual).
func (s *Switch) output(port uint16, maxLen uint16, inPort uint16, frame []byte) {
	switch port {
	case openflow.PortFlood, openflow.PortAll:
		s.flood(inPort, frame)
	case openflow.PortInPort:
		s.outputTo(inPort, frame)
	case openflow.PortController:
		s.sendPacketIn(inPort, frame, openflow.PacketInReasonAction, maxLen)
	case openflow.PortTable:
		// Valid only for PACKET_OUT: run the frame through the table.
		fields, err := dataplane.Fields(inPort, frame)
		if err != nil {
			return
		}
		if e := s.table.Lookup(fields, len(frame), s.clk.Now()); e != nil {
			s.applyActions(e.Actions, inPort, frame)
		}
	case openflow.PortLocal, openflow.PortNone, openflow.PortNormal:
		// Not modelled: no local stack, no NORMAL pipeline while connected.
	default:
		s.outputTo(port, frame)
	}
}

// sendPacketIn buffers the frame and notifies the controller. The send is
// non-blocking: if the control channel is congested the notification is
// dropped, like a real switch under pressure.
func (s *Switch) sendPacketIn(inPort uint16, frame []byte, reason openflow.PacketInReason, maxLen uint16) {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn == nil {
		return
	}

	pi := &openflow.PacketIn{
		TotalLen: uint16(len(frame)),
		InPort:   inPort,
		Reason:   reason,
	}
	limit := int(s.cfg.MissSendLen)
	if reason == openflow.PacketInReasonAction && maxLen > 0 {
		limit = int(maxLen)
	}
	if s.cfg.NBuffers > 0 {
		pi.BufferID = s.bufs.put(inPort, frame)
		if len(frame) > limit {
			pi.Data = append([]byte(nil), frame[:limit]...)
		} else {
			pi.Data = append([]byte(nil), frame...)
		}
	} else {
		pi.BufferID = openflow.NoBuffer
		pi.Data = append([]byte(nil), frame...)
	}
	if conn.sendAsync(s.nextXid(), pi) {
		s.ctrs.packetInsBuffered.Inc()
		s.tele.Emit(telemetry.Event{
			Layer: telemetry.LayerSwitch, Kind: telemetry.KindPacketIn,
			Node: s.cfg.Name, MsgType: "PACKET_IN", Detail: pi.Reason.String(),
		})
	}
}

func (s *Switch) nextXid() uint32 { return s.xid.Add(1) }

// ---- Controller channel ----

func (s *Switch) setConnected(up bool, conn *hostedConn) {
	s.mu.Lock()
	wasUp := s.connected
	s.connected = up
	s.conn = conn
	if up {
		// Leaving standalone mode: forget learned MACs.
		s.macTable = make(map[netaddr.MAC]uint16)
	}
	enterEmergency := wasUp && !up && s.cfg.EmergencyFlows && s.cfg.FailMode == FailSecure
	s.mu.Unlock()
	if enterEmergency {
		// §4.3: entering emergency mode resets the normal flow table.
		s.table.Clear()
	}
	if wasUp != up && s.tele.Enabled() {
		detail := "connected"
		if !up {
			detail = "disconnected fail_" + s.cfg.FailMode.String()
		}
		s.tele.Emit(telemetry.Event{
			Layer: telemetry.LayerSwitch, Kind: telemetry.KindFailMode,
			Node: s.cfg.Name, Detail: detail,
		})
	}
}

// handleControl dispatches one controller-to-switch message.
func (s *Switch) handleControl(conn *hostedConn, hdr openflow.Header, msg openflow.Message) {
	switch m := msg.(type) {
	case *openflow.EchoRequest:
		_ = conn.send(hdr.Xid, &openflow.EchoReply{Data: m.Data})
	case *openflow.EchoReply:
		// lastRx already refreshed.
	case *openflow.FeaturesRequest:
		_ = conn.send(hdr.Xid, s.featuresReply())
	case *openflow.GetConfigRequest:
		_ = conn.send(hdr.Xid, &openflow.GetConfigReply{MissSendLen: s.cfg.MissSendLen})
	case *openflow.SetConfig:
		s.mu.Lock()
		if m.MissSendLen > 0 {
			s.cfg.MissSendLen = m.MissSendLen
		}
		s.mu.Unlock()
	case *openflow.BarrierRequest:
		_ = conn.send(hdr.Xid, &openflow.BarrierReply{})
	case *openflow.FlowMod:
		s.handleFlowMod(conn, hdr, m)
	case *openflow.PacketOut:
		s.handlePacketOut(m)
	case *openflow.PortMod:
		s.handlePortMod(conn, m)
	case *openflow.StatsRequest:
		s.handleStatsRequest(conn, hdr, m)
	case *openflow.Vendor:
		_ = conn.send(hdr.Xid, &openflow.ErrorMsg{
			ErrType: openflow.ErrTypeBadRequest, Code: openflow.ErrCodeBadRequestBadType,
		})
	default:
		// HELLO after handshake, replies, etc.: ignore.
	}
}

// handlePortMod applies OFPPC_PORT_DOWN changes and notifies the
// controller with PORT_STATUS.
func (s *Switch) handlePortMod(conn *hostedConn, pm *openflow.PortMod) {
	if pm.Mask&openflow.PortConfigPortDown == 0 {
		return
	}
	s.mu.Lock()
	p := s.ports[pm.PortNo]
	var desc openflow.PhyPort
	if p != nil {
		p.adminDown = pm.Config&openflow.PortConfigPortDown != 0
		desc = p.phy()
	}
	s.mu.Unlock()
	if p == nil {
		_ = conn.sendAsync(s.nextXid(), &openflow.ErrorMsg{
			ErrType: openflow.ErrTypePortModFailed, Code: 0,
		})
		return
	}
	_ = conn.sendAsync(s.nextXid(), &openflow.PortStatus{
		Reason: openflow.PortStatusModify,
		Desc:   desc,
	})
}

func (s *Switch) featuresReply() *openflow.FeaturesReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := &openflow.FeaturesReply{
		DatapathID:   s.cfg.DPID,
		NBuffers:     uint32(s.cfg.NBuffers),
		NTables:      1,
		Capabilities: openflow.CapabilityFlowStats | openflow.CapabilityTableStats | openflow.CapabilityPortStats,
		Actions:      0x0fff,
	}
	for _, p := range s.ports {
		fr.Ports = append(fr.Ports, p.phy())
	}
	return fr
}

func (s *Switch) handleFlowMod(conn *hostedConn, hdr openflow.Header, fm *openflow.FlowMod) {
	now := s.clk.Now()
	table := s.table
	if fm.Flags&openflow.FlowModFlagEmergency != 0 {
		if !s.cfg.EmergencyFlows {
			_ = conn.send(hdr.Xid, &openflow.ErrorMsg{
				ErrType: openflow.ErrTypeFlowModFailed, Code: openflow.ErrCodeFlowModUnsupported,
			})
			return
		}
		// §4.6: emergency entries must not have timeouts.
		if fm.IdleTimeout != 0 || fm.HardTimeout != 0 {
			_ = conn.send(hdr.Xid, &openflow.ErrorMsg{
				ErrType: openflow.ErrTypeFlowModFailed, Code: openflow.ErrCodeFlowModBadEmergTimeout,
			})
			return
		}
		table = s.emerg
	}
	var err error
	switch fm.Command {
	case openflow.FlowModAdd:
		if err = table.Add(fm, now); err == nil {
			s.ctrs.flowModsInstalled.Inc()
			s.tele.Emit(telemetry.Event{
				Layer: telemetry.LayerSwitch, Kind: telemetry.KindInstall,
				Node: s.cfg.Name, MsgType: "FLOW_MOD", Detail: "add",
			})
		}
	case openflow.FlowModModify:
		if err = table.Modify(fm, false, now); err == nil {
			s.ctrs.flowModsInstalled.Inc()
			s.tele.Emit(telemetry.Event{
				Layer: telemetry.LayerSwitch, Kind: telemetry.KindInstall,
				Node: s.cfg.Name, MsgType: "FLOW_MOD", Detail: "modify",
			})
		}
	case openflow.FlowModModifyStrict:
		if err = table.Modify(fm, true, now); err == nil {
			s.ctrs.flowModsInstalled.Inc()
			s.tele.Emit(telemetry.Event{
				Layer: telemetry.LayerSwitch, Kind: telemetry.KindInstall,
				Node: s.cfg.Name, MsgType: "FLOW_MOD", Detail: "modify_strict",
			})
		}
	case openflow.FlowModDelete, openflow.FlowModDeleteStrict:
		removed := table.Delete(fm, fm.Command == openflow.FlowModDeleteStrict)
		for _, e := range removed {
			s.ctrs.flowModsEvicted.Inc()
			s.tele.Emit(telemetry.Event{
				Layer: telemetry.LayerSwitch, Kind: telemetry.KindEvict,
				Node: s.cfg.Name, Detail: openflow.FlowRemovedDelete.String(),
			})
			s.notifyFlowRemoved(conn, e, openflow.FlowRemovedDelete, now)
		}
	default:
		_ = conn.send(hdr.Xid, &openflow.ErrorMsg{
			ErrType: openflow.ErrTypeFlowModFailed, Code: openflow.ErrCodeFlowModBadCommand,
		})
		return
	}
	if err != nil {
		code := openflow.ErrCodeFlowModAllTablesFull
		if errors.Is(err, ErrOverlap) {
			code = openflow.ErrCodeFlowModOverlap
		}
		_ = conn.send(hdr.Xid, &openflow.ErrorMsg{ErrType: openflow.ErrTypeFlowModFailed, Code: code})
		return
	}
	s.mu.Lock()
	s.stats.FlowModsApplied++
	s.mu.Unlock()

	// Release a buffered packet through the new actions (ADD/MODIFY only).
	if fm.BufferID != openflow.NoBuffer && fm.Command <= openflow.FlowModModifyStrict {
		if pkt, ok := s.bufs.take(fm.BufferID); ok {
			s.applyActions(fm.Actions, pkt.inPort, pkt.frame)
		}
	}
}

func (s *Switch) handlePacketOut(po *openflow.PacketOut) {
	var frame []byte
	inPort := po.InPort
	if po.BufferID != openflow.NoBuffer {
		pkt, ok := s.bufs.take(po.BufferID)
		if !ok {
			return
		}
		frame = pkt.frame
		if inPort == openflow.PortNone {
			inPort = pkt.inPort
		}
	} else {
		frame = po.Data
	}
	if len(frame) == 0 {
		return
	}
	s.mu.Lock()
	s.stats.PacketOutsApplied++
	s.mu.Unlock()
	s.applyActions(po.Actions, inPort, frame)
}

func (s *Switch) handleStatsRequest(conn *hostedConn, hdr openflow.Header, req *openflow.StatsRequest) {
	var body openflow.StatsBody
	switch b := req.Body.(type) {
	case openflow.DescStatsRequest:
		body = &openflow.DescStatsReply{
			MfrDesc: "ATTAIN", HWDesc: "simulated", SWDesc: "switchsim",
			SerialNum: fmt.Sprintf("%d", s.cfg.DPID), DPDesc: s.cfg.Name,
		}
	case *openflow.FlowStatsRequest:
		reply := &openflow.FlowStatsReply{}
		now := s.clk.Now()
		for _, e := range s.table.Snapshot() {
			if !b.Match.Subsumes(e.Match) {
				continue
			}
			dur := now.Sub(e.InstalledAt)
			reply.Flows = append(reply.Flows, openflow.FlowStatsEntry{
				TableID: 0, Match: e.Match,
				DurationSec:  uint32(dur / time.Second),
				DurationNsec: uint32(dur % time.Second),
				Priority:     e.Priority, IdleTimeout: e.IdleTimeout, HardTimeout: e.HardTimeout,
				Cookie: e.Cookie, PacketCount: e.Packets, ByteCount: e.Bytes,
				Actions: e.Actions,
			})
		}
		body = reply
	case *openflow.AggregateStatsRequest:
		packets, bytes, flows := s.table.Aggregate(b.Match)
		body = &openflow.AggregateStatsReply{PacketCount: packets, ByteCount: bytes, FlowCount: flows}
	case openflow.TableStatsRequest:
		lookups, matched := s.table.LookupStats()
		body = &openflow.TableStatsReply{Tables: []openflow.TableStatsEntry{{
			TableID: 0, Name: "classifier", Wildcards: openflow.WildcardAll,
			MaxEntries: uint32(s.cfg.TableSize), ActiveCount: uint32(s.table.Len()),
			LookupCount: lookups, MatchedCount: matched,
		}}}
	case *openflow.PortStatsRequest:
		reply := &openflow.PortStatsReply{}
		s.mu.Lock()
		for _, p := range s.ports {
			if b.PortNo != openflow.PortNone && b.PortNo != p.no {
				continue
			}
			reply.Ports = append(reply.Ports, openflow.PortStatsEntry{PortNo: p.no})
		}
		s.mu.Unlock()
		body = reply
	default:
		_ = conn.send(hdr.Xid, &openflow.ErrorMsg{
			ErrType: openflow.ErrTypeBadRequest, Code: openflow.ErrCodeBadRequestBadStat,
		})
		return
	}
	_ = conn.send(hdr.Xid, &openflow.StatsReply{Body: body})
}

func (s *Switch) notifyFlowRemoved(conn *hostedConn, e *Entry, reason openflow.FlowRemovedReason, now time.Time) {
	if e.Flags&openflow.FlowModFlagSendFlowRem == 0 || conn == nil {
		return
	}
	dur := now.Sub(e.InstalledAt)
	_ = conn.sendAsync(s.nextXid(), &openflow.FlowRemoved{
		Match: e.Match, Cookie: e.Cookie, Priority: e.Priority, Reason: reason,
		DurationSec: uint32(dur / time.Second), DurationNsec: uint32(dur % time.Second),
		IdleTimeout: e.IdleTimeout, PacketCount: e.Packets, ByteCount: e.Bytes,
	})
}

// expireOnce runs one flow-timeout sweep at the shard's batch timestamp,
// notifying the controller over the current control channel if there is
// one.
func (s *Switch) expireOnce(now time.Time) {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	expired := s.table.Expire(now)
	for _, ex := range expired {
		s.ctrs.flowModsEvicted.Inc()
		s.tele.Emit(telemetry.Event{
			Layer: telemetry.LayerSwitch, Kind: telemetry.KindEvict,
			Node: s.cfg.Name, Detail: ex.Reason.String(),
		})
		s.notifyFlowRemoved(conn, ex.Entry, ex.Reason, now)
	}
}
