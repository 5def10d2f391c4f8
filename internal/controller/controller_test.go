package controller

import (
	"net"
	"testing"
	"time"

	"attain/internal/clock"
	"attain/internal/dataplane"
	"attain/internal/netaddr"
	"attain/internal/netem"
	"attain/internal/openflow"
)

var (
	macA = netaddr.MustParseMAC("0a:00:00:00:00:01")
	macB = netaddr.MustParseMAC("0a:00:00:00:00:02")
	ipA  = netaddr.MustParseIPv4("10.0.0.1")
	ipB  = netaddr.MustParseIPv4("10.0.0.2")
)

// fakeSwitch speaks just enough OpenFlow to drive the controller: it
// performs the handshake and then exposes send/expect primitives.
type fakeSwitch struct {
	t    *testing.T
	conn net.Conn
	got  chan openflow.Message
}

func dialController(t *testing.T, tr netem.Transport, addr string, dpid uint64) *fakeSwitch {
	t.Helper()
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeSwitch{t: t, conn: conn, got: make(chan openflow.Message, 64)}

	// Handshake: HELLO out, then answer FEATURES_REQUEST. The controller
	// also writes its HELLO first, and net.Pipe writes block until read,
	// so our HELLO must go out asynchronously while we read.
	helloErr := make(chan error, 1)
	go func() {
		helloErr <- openflow.WriteMessage(conn, 1, &openflow.Hello{})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for handshaking := true; handshaking; {
		if time.Now().After(deadline) {
			t.Fatal("handshake timed out")
		}
		hdr, msg, err := openflow.ReadMessage(conn)
		if err != nil {
			t.Fatalf("handshake read: %v", err)
		}
		switch msg.(type) {
		case *openflow.Hello:
			// fine, keep reading
		case *openflow.FeaturesRequest:
			// Our HELLO must have been consumed for the controller to
			// have sent FEATURES_REQUEST.
			if err := <-helloErr; err != nil {
				t.Fatal(err)
			}
			reply := &openflow.FeaturesReply{
				DatapathID: dpid, NBuffers: 256, NTables: 1,
				Ports: []openflow.PhyPort{
					{PortNo: 1, Name: "eth1"}, {PortNo: 2, Name: "eth2"},
				},
			}
			if err := openflow.WriteMessage(conn, hdr.Xid, reply); err != nil {
				t.Fatal(err)
			}
			handshaking = false
		default:
			t.Fatalf("unexpected %s during handshake", msg.Type())
		}
	}
	go func() {
		for {
			_, msg, err := openflow.ReadMessage(conn)
			if err != nil {
				close(fs.got)
				return
			}
			fs.got <- msg
		}
	}()
	t.Cleanup(func() { _ = conn.Close() })
	return fs
}

func (fs *fakeSwitch) send(xid uint32, msg openflow.Message) {
	fs.t.Helper()
	if err := openflow.WriteMessage(fs.conn, xid, msg); err != nil {
		fs.t.Fatalf("send: %v", err)
	}
}

func (fs *fakeSwitch) expect(d time.Duration) openflow.Message {
	fs.t.Helper()
	select {
	case msg, ok := <-fs.got:
		if !ok {
			fs.t.Fatal("connection closed")
		}
		return msg
	case <-time.After(d):
		fs.t.Fatal("timed out waiting for controller message")
		return nil
	}
}

func (fs *fakeSwitch) expectNone(d time.Duration) {
	fs.t.Helper()
	select {
	case msg, ok := <-fs.got:
		if ok {
			fs.t.Fatalf("unexpected %s", msg.Type())
		}
	case <-time.After(d):
	}
}

func startController(t *testing.T, profile Profile) (*Controller, *LearningSwitch, *netem.MemTransport) {
	t.Helper()
	tr := netem.NewMemTransport()
	app := NewLearningSwitch(profile)
	ctrl := New(Config{Name: "c1", ListenAddr: "c1", Transport: tr, App: app}, clock.New())
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Stop)
	return ctrl, app, tr
}

// packetInFor builds a PACKET_IN carrying an ICMP frame src->dst.
func packetInFor(srcMAC, dstMAC netaddr.MAC, srcIP, dstIP netaddr.IPv4, inPort uint16, bufferID uint32) *openflow.PacketIn {
	echo := &dataplane.ICMPEcho{IsRequest: true, Ident: 1, Seq: 1}
	ip := &dataplane.IPv4{TTL: 64, Protocol: dataplane.ProtoICMP, Src: srcIP, Dst: dstIP, Payload: echo.Marshal()}
	frame := (&dataplane.Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: dataplane.EtherTypeIPv4, Payload: ip.Marshal()}).Marshal()
	return &openflow.PacketIn{
		BufferID: bufferID,
		TotalLen: uint16(len(frame)),
		InPort:   inPort,
		Reason:   openflow.PacketInReasonNoMatch,
		Data:     frame,
	}
}

func TestHandshakeRecordsSwitch(t *testing.T) {
	ctrl, _, tr := startController(t, ProfileFloodlight)
	dialController(t, tr, "c1", 42)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && len(ctrl.Switches()) == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	sws := ctrl.Switches()
	sc, ok := sws[42]
	if !ok {
		t.Fatalf("switches = %v", sws)
	}
	if len(sc.Ports()) != 2 {
		t.Errorf("ports = %v", sc.Ports())
	}
	if ctrl.Stats().Connections != 1 {
		t.Errorf("connections = %d", ctrl.Stats().Connections)
	}
}

func TestEchoReply(t *testing.T) {
	_, _, tr := startController(t, ProfileFloodlight)
	fs := dialController(t, tr, "c1", 1)
	fs.send(9, &openflow.EchoRequest{Data: []byte("ping")})
	msg := fs.expect(2 * time.Second)
	reply, ok := msg.(*openflow.EchoReply)
	if !ok {
		t.Fatalf("got %s", msg.Type())
	}
	if string(reply.Data) != "ping" {
		t.Errorf("payload = %q", reply.Data)
	}
}

func TestUnknownDestinationFloods(t *testing.T) {
	_, _, tr := startController(t, ProfileFloodlight)
	fs := dialController(t, tr, "c1", 1)
	fs.send(2, packetInFor(macA, macB, ipA, ipB, 1, 77))
	msg := fs.expect(2 * time.Second)
	po, ok := msg.(*openflow.PacketOut)
	if !ok {
		t.Fatalf("got %s, want PACKET_OUT", msg.Type())
	}
	if po.BufferID != 77 {
		t.Errorf("buffer id = %d", po.BufferID)
	}
	if out := po.Actions[0].(openflow.ActionOutput); out.Port != openflow.PortFlood {
		t.Errorf("action port = %d, want FLOOD", out.Port)
	}
	// No flow installed for floods.
	fs.expectNone(100 * time.Millisecond)
}

func TestFloodlightForwardShape(t *testing.T) {
	_, app, tr := startController(t, ProfileFloodlight)
	fs := dialController(t, tr, "c1", 1)
	// Teach the controller where macB lives (packet from B on port 2).
	fs.send(2, packetInFor(macB, macA, ipB, ipA, 2, openflow.NoBuffer))
	fs.expect(2 * time.Second) // flood of the teaching packet
	// Now a packet toward macB must install a flow AND packet-out.
	fs.send(3, packetInFor(macA, macB, ipA, ipB, 1, 55))

	var fm *openflow.FlowMod
	var po *openflow.PacketOut
	for i := 0; i < 2; i++ {
		switch m := fs.expect(2 * time.Second).(type) {
		case *openflow.FlowMod:
			fm = m
		case *openflow.PacketOut:
			po = m
		}
	}
	if fm == nil || po == nil {
		t.Fatalf("flow mod %v packet out %v", fm, po)
	}
	// Floodlight: exact match including L3, idle 5, separate PACKET_OUT
	// referencing the buffer, FLOW_MOD with NoBuffer.
	if fm.BufferID != openflow.NoBuffer {
		t.Errorf("floodlight flow mod carries buffer %d", fm.BufferID)
	}
	if fm.IdleTimeout != 5 || fm.HardTimeout != 0 {
		t.Errorf("timeouts = %d/%d", fm.IdleTimeout, fm.HardTimeout)
	}
	if fm.Match.NWSrcMaskBits() != 32 {
		t.Errorf("match lacks exact nw_src: %s", fm.Match)
	}
	if po.BufferID != 55 {
		t.Errorf("packet out buffer = %d", po.BufferID)
	}
	if tbl := app.MACTable(1); tbl[macA] != 1 || tbl[macB] != 2 {
		t.Errorf("mac table = %v", tbl)
	}
}

func TestPOXForwardShape(t *testing.T) {
	_, _, tr := startController(t, ProfilePOX)
	fs := dialController(t, tr, "c1", 1)
	fs.send(2, packetInFor(macB, macA, ipB, ipA, 2, openflow.NoBuffer))
	fs.expect(2 * time.Second) // flood
	fs.send(3, packetInFor(macA, macB, ipA, ipB, 1, 55))

	msg := fs.expect(2 * time.Second)
	fm, ok := msg.(*openflow.FlowMod)
	if !ok {
		t.Fatalf("got %s, want FLOW_MOD", msg.Type())
	}
	// POX: the flow mod itself releases the buffer; no separate
	// PACKET_OUT; idle 10 hard 30.
	if fm.BufferID != 55 {
		t.Errorf("pox flow mod buffer = %d, want 55", fm.BufferID)
	}
	if fm.IdleTimeout != 10 || fm.HardTimeout != 30 {
		t.Errorf("timeouts = %d/%d", fm.IdleTimeout, fm.HardTimeout)
	}
	fs.expectNone(100 * time.Millisecond)
}

func TestPOXUnbufferedFallsBackToPacketOut(t *testing.T) {
	_, _, tr := startController(t, ProfilePOX)
	fs := dialController(t, tr, "c1", 1)
	fs.send(2, packetInFor(macB, macA, ipB, ipA, 2, openflow.NoBuffer))
	fs.expect(2 * time.Second)
	// Unbuffered packet-in: POX must send flow mod AND a data packet-out.
	fs.send(3, packetInFor(macA, macB, ipA, ipB, 1, openflow.NoBuffer))
	var sawFM, sawPO bool
	for i := 0; i < 2; i++ {
		switch fs.expect(2 * time.Second).(type) {
		case *openflow.FlowMod:
			sawFM = true
		case *openflow.PacketOut:
			sawPO = true
		}
	}
	if !sawFM || !sawPO {
		t.Errorf("flow mod %v packet out %v", sawFM, sawPO)
	}
}

func TestRyuForwardShape(t *testing.T) {
	_, _, tr := startController(t, ProfileRyu)
	fs := dialController(t, tr, "c1", 1)
	fs.send(2, packetInFor(macB, macA, ipB, ipA, 2, openflow.NoBuffer))
	fs.expect(2 * time.Second)
	fs.send(3, packetInFor(macA, macB, ipA, ipB, 1, 55))

	var fm *openflow.FlowMod
	var po *openflow.PacketOut
	for i := 0; i < 2; i++ {
		switch m := fs.expect(2 * time.Second).(type) {
		case *openflow.FlowMod:
			fm = m
		case *openflow.PacketOut:
			po = m
		}
	}
	if fm == nil || po == nil {
		t.Fatalf("flow mod %v packet out %v", fm, po)
	}
	// Ryu: L2-only match — no nw_src/nw_dst/tp fields, no timeouts. This
	// is the property that makes the paper's φ2 never fire against Ryu.
	if fm.Match.NWSrcMaskBits() != 0 || fm.Match.NWDstMaskBits() != 0 {
		t.Errorf("ryu match pins network addresses: %s", fm.Match)
	}
	if fm.Match.Wildcards&openflow.WildcardDLSrc != 0 || fm.Match.Wildcards&openflow.WildcardDLDst != 0 {
		t.Errorf("ryu match does not pin L2: %s", fm.Match)
	}
	if fm.Match.Wildcards&openflow.WildcardTPDst == 0 {
		t.Errorf("ryu match pins tp_dst: %s", fm.Match)
	}
	if fm.IdleTimeout != 0 || fm.HardTimeout != 0 {
		t.Errorf("ryu timeouts = %d/%d, want none", fm.IdleTimeout, fm.HardTimeout)
	}
	if po.BufferID != 55 {
		t.Errorf("packet out buffer = %d", po.BufferID)
	}
}

func TestMulticastAlwaysFloods(t *testing.T) {
	_, _, tr := startController(t, ProfileFloodlight)
	fs := dialController(t, tr, "c1", 1)
	bcast := netaddr.Broadcast
	fs.send(2, packetInFor(macA, bcast, ipA, netaddr.IPv4{255, 255, 255, 255}, 1, openflow.NoBuffer))
	msg := fs.expect(2 * time.Second)
	po, ok := msg.(*openflow.PacketOut)
	if !ok {
		t.Fatalf("got %s", msg.Type())
	}
	if out := po.Actions[0].(openflow.ActionOutput); out.Port != openflow.PortFlood {
		t.Errorf("broadcast not flooded: port %d", out.Port)
	}
}

func TestSwitchDownClearsState(t *testing.T) {
	ctrl, app, tr := startController(t, ProfileFloodlight)
	fs := dialController(t, tr, "c1", 7)
	fs.send(2, packetInFor(macA, macB, ipA, ipB, 1, openflow.NoBuffer))
	fs.expect(2 * time.Second)
	if len(app.MACTable(7)) == 0 {
		t.Fatal("nothing learned")
	}
	_ = fs.conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && len(ctrl.Switches()) > 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if len(ctrl.Switches()) != 0 {
		t.Error("switch still registered after disconnect")
	}
	if len(app.MACTable(7)) != 0 {
		t.Error("MAC table survives disconnect")
	}
}

func TestGarbagePacketInIgnored(t *testing.T) {
	_, _, tr := startController(t, ProfileFloodlight)
	fs := dialController(t, tr, "c1", 1)
	fs.send(2, &openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: 1, Data: []byte{1, 2, 3}})
	fs.expectNone(100 * time.Millisecond)
}

func TestControllerStartTwice(t *testing.T) {
	ctrl, _, _ := startController(t, ProfileFloodlight)
	if err := ctrl.Start(); err == nil {
		t.Error("second Start accepted")
	}
}

func TestProfileStrings(t *testing.T) {
	tests := map[Profile]string{
		ProfileFloodlight: "floodlight",
		ProfilePOX:        "pox",
		ProfileRyu:        "ryu",
		Profile(99):       "unknown",
	}
	for p, want := range tests {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
	if name := NewLearningSwitch(ProfilePOX).Name(); name != "pox-l2-learning" {
		t.Errorf("app name = %q", name)
	}
}

// TestHandshakeReadAheadReachesServeLoop: a switch that sends HELLO,
// FEATURES_REPLY and an ECHO_REQUEST in one write gets its ECHO_REPLY, so
// bytes read past the handshake's last frame are served, not lost.
func TestHandshakeReadAheadReachesServeLoop(t *testing.T) {
	tr := netem.NewBufferedMemTransport(0)
	ctrl := New(Config{Name: "c1", ListenAddr: "c1", Transport: tr, App: NewLearningSwitch(ProfileFloodlight)}, clock.New())
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Stop)
	conn, err := tr.Dial("c1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A lost frame would block the reads below: closing the conn ends them.
	defer time.AfterFunc(5*time.Second, func() { conn.Close() }).Stop()
	var burst []byte
	for i, msg := range []openflow.Message{
		&openflow.Hello{}, &openflow.FeaturesReply{DatapathID: 7}, &openflow.EchoRequest{Data: []byte("ahead")},
	} {
		if burst, err = openflow.AppendMessage(burst, uint32(i+1), msg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for _, want := range []openflow.Type{openflow.TypeHello, openflow.TypeFeaturesRequest, openflow.TypeEchoReply} {
		hdr, msg, err := openflow.ReadMessage(conn)
		if err != nil {
			t.Fatalf("waiting for %s: %v", want, err)
		}
		if hdr.Type != want {
			t.Fatalf("got %s, want %s", hdr.Type, want)
		}
		if want == openflow.TypeEchoReply && (hdr.Xid != 3 || string(msg.(*openflow.EchoReply).Data) != "ahead") {
			t.Fatalf("echo reply xid %d data %q", hdr.Xid, msg.(*openflow.EchoReply).Data)
		}
	}
}
