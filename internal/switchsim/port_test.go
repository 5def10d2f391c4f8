package switchsim

import (
	"testing"
	"time"

	"attain/internal/clock"
	"attain/internal/controller"
	"attain/internal/dataplane"
	"attain/internal/netaddr"
	"attain/internal/netem"
	"attain/internal/openflow"
)

func TestSetLinkDownDropsTraffic(t *testing.T) {
	r := newRig(t, controller.ProfileFloodlight, FailSecure)
	pingOK(t, r)

	r.sw.SetLinkDown(2, true)
	if _, err := r.h1.Ping(r.h2.IP(), 200*time.Millisecond); err == nil {
		t.Error("ping succeeded over a down link")
	}
	r.sw.SetLinkDown(2, false)
	if _, err := r.h1.Ping(r.h2.IP(), 2*time.Second); err != nil {
		t.Errorf("ping failed after link restore: %v", err)
	}
}

func TestPortModAdminDown(t *testing.T) {
	r := newRig(t, controller.ProfileFloodlight, FailSecure)
	pingOK(t, r)
	sc := r.ctrl.Switches()[1]
	if sc == nil {
		t.Fatal("no switch connection")
	}
	// Administratively disable port 2.
	if err := sc.Send(&openflow.PortMod{
		PortNo: 2,
		Config: openflow.PortConfigPortDown,
		Mask:   openflow.PortConfigPortDown,
	}); err != nil {
		t.Fatal(err)
	}
	// Wait for the config to land (ping keeps failing until it does, so
	// poll on the features view instead: the phy must show PORT_DOWN).
	waitAdminDown(r, 2, true)
	if _, err := r.h1.Ping(r.h2.IP(), 200*time.Millisecond); err == nil {
		t.Error("ping succeeded over an administratively down port")
	}
	// Re-enable.
	if err := sc.Send(&openflow.PortMod{
		PortNo: 2,
		Config: 0,
		Mask:   openflow.PortConfigPortDown,
	}); err != nil {
		t.Fatal(err)
	}
	// The switch applies PORT_MODs on its shard loop while the ping
	// enters the datapath directly, so wait for this one to land too.
	waitAdminDown(r, 2, false)
	if _, err := r.h1.Ping(r.h2.IP(), 2*time.Second); err != nil {
		t.Errorf("ping failed after port re-enable: %v", err)
	}
}

// waitAdminDown polls (up to 2s) until port's OFPPC_PORT_DOWN state is want.
func waitAdminDown(r *rig, port uint16, want bool) {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		r.sw.mu.Lock()
		down := r.sw.ports[port].adminDown
		r.sw.mu.Unlock()
		if down == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// emergencyRig builds a one-switch network with emergency flows enabled.
func emergencyRig(t *testing.T) *rig {
	t.Helper()
	clk := clock.New()
	tr := netem.NewMemTransport()
	app := controller.NewLearningSwitch(controller.ProfileFloodlight)
	ctrl := controller.New(controller.Config{
		Name: "c1", ListenAddr: "c1", Transport: tr, App: app,
	}, clk)
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	sw := New(Config{
		Name: "s1", DPID: 1, ControllerAddr: "c1", Transport: tr,
		FailMode:          FailSecure,
		EmergencyFlows:    true,
		EchoInterval:      50 * time.Millisecond,
		EchoTimeout:       150 * time.Millisecond,
		ReconnectInterval: 50 * time.Millisecond,
	}, clk)
	h1 := dataplane.NewHost("h1", macA, ipA, clk)
	h2 := dataplane.NewHost("h2", macB, ipB, clk)
	h1.AttachOutput(sw.AttachPort(1, "p1", h1.Input))
	h2.AttachOutput(sw.AttachPort(2, "p2", h2.Input))
	sw.Start()
	r := &rig{clk: clk, ctrl: ctrl, app: app, sw: sw, h1: h1, h2: h2}
	t.Cleanup(func() { sw.Stop(); ctrl.Stop() })
	r.waitConnected(t, true)
	return r
}

func TestEmergencyFlowsServeWhenDisconnected(t *testing.T) {
	r := emergencyRig(t)
	pingOK(t, r)
	sc := r.ctrl.Switches()[1]
	if sc == nil {
		t.Fatal("no switch connection")
	}
	// Install bidirectional emergency flows for all traffic between the
	// two ports, before cutting the controller.
	for _, pair := range [][2]uint16{{1, 2}, {2, 1}} {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardInPort
		m.InPort = pair[0]
		if err := sc.Send(&openflow.FlowMod{
			Match:    m,
			Command:  openflow.FlowModAdd,
			Priority: 1,
			BufferID: openflow.NoBuffer,
			OutPort:  openflow.PortNone,
			Flags:    openflow.FlowModFlagEmergency,
			Actions:  []openflow.Action{openflow.ActionOutput{Port: pair[1]}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && r.sw.emerg.Len() < 2 {
		time.Sleep(2 * time.Millisecond)
	}
	if r.sw.emerg.Len() != 2 {
		t.Fatalf("emergency table has %d entries", r.sw.emerg.Len())
	}

	r.ctrl.Stop()
	r.waitConnected(t, false)
	// §4.3: the normal table was reset on entering emergency mode.
	if n := r.sw.Table().Len(); n != 0 {
		t.Errorf("normal table has %d entries in emergency mode", n)
	}
	// Traffic matching the emergency entries still flows.
	if _, err := r.h1.Ping(r.h2.IP(), 2*time.Second); err != nil {
		t.Errorf("ping over emergency flows failed: %v", err)
	}
}

func TestEmergencyFlowModRejectsTimeouts(t *testing.T) {
	r := emergencyRig(t)
	sc := r.ctrl.Switches()[1]
	if sc == nil {
		t.Fatal("no switch connection")
	}
	before := r.sw.emerg.Len()
	if err := sc.Send(&openflow.FlowMod{
		Match:       openflow.MatchAll(),
		Command:     openflow.FlowModAdd,
		IdleTimeout: 5, // §4.6 violation
		BufferID:    openflow.NoBuffer,
		OutPort:     openflow.PortNone,
		Flags:       openflow.FlowModFlagEmergency,
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if r.sw.emerg.Len() != before {
		t.Error("emergency flow with a timeout was installed")
	}
}

func TestEmergencyFlagRejectedWhenDisabled(t *testing.T) {
	r := newRig(t, controller.ProfileFloodlight, FailSecure) // EmergencyFlows off
	sc := r.ctrl.Switches()[1]
	if sc == nil {
		t.Fatal("no switch connection")
	}
	if err := sc.Send(&openflow.FlowMod{
		Match:    openflow.MatchAll(),
		Command:  openflow.FlowModAdd,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Flags:    openflow.FlowModFlagEmergency,
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if r.sw.emerg.Len() != 0 || r.sw.Table().Len() != 0 {
		t.Error("emergency flow installed despite the feature being disabled")
	}
}

func TestRewriteNWAndTPChecksums(t *testing.T) {
	// Build a UDP frame, rewrite nw_dst and tp_dst, and verify it still
	// decodes with valid checksums at the new addresses.
	srcIP := netaddr.MustParseIPv4("10.0.0.1")
	oldDst := netaddr.MustParseIPv4("10.0.0.2")
	newDst := netaddr.MustParseIPv4("10.0.0.9")
	dgram := &dataplane.UDP{SrcPort: 1000, DstPort: 53, Payload: []byte("query")}
	ip := &dataplane.IPv4{TTL: 64, Protocol: dataplane.ProtoUDP, Src: srcIP, Dst: oldDst,
		Payload: dgram.Marshal(srcIP, oldDst)}
	frame := (&dataplane.Ethernet{Dst: macB, Src: macA, EtherType: dataplane.EtherTypeIPv4,
		Payload: ip.Marshal()}).Marshal()

	if !rewriteFrame(frame, openflow.ActionSetNWDst{Addr: newDst}) {
		t.Fatal("SetNWDst rewrite failed")
	}
	if !rewriteFrame(frame, openflow.ActionSetTPDst{Port: 5353}) {
		t.Fatal("SetTPDst rewrite failed")
	}

	eth, err := dataplane.UnmarshalEthernet(frame)
	if err != nil {
		t.Fatal(err)
	}
	gotIP, err := dataplane.UnmarshalIPv4(eth.Payload)
	if err != nil {
		t.Fatalf("IP checksum broken after rewrite: %v", err)
	}
	if gotIP.Dst != newDst {
		t.Errorf("nw_dst = %s", gotIP.Dst)
	}
	gotUDP, err := dataplane.UnmarshalUDP(gotIP.Src, gotIP.Dst, gotIP.Payload)
	if err != nil {
		t.Fatalf("UDP checksum broken after rewrite: %v", err)
	}
	if gotUDP.DstPort != 5353 {
		t.Errorf("tp_dst = %d", gotUDP.DstPort)
	}
	if string(gotUDP.Payload) != "query" {
		t.Errorf("payload = %q", gotUDP.Payload)
	}
}

func TestRewriteTCPChecksum(t *testing.T) {
	srcIP := netaddr.MustParseIPv4("10.0.0.1")
	dstIP := netaddr.MustParseIPv4("10.0.0.2")
	newSrc := netaddr.MustParseIPv4("172.16.0.1")
	seg := &dataplane.TCP{SrcPort: 40000, DstPort: 80, Seq: 7, Flags: dataplane.TCPSyn, Window: 100}
	ip := &dataplane.IPv4{TTL: 64, Protocol: dataplane.ProtoTCP, Src: srcIP, Dst: dstIP,
		Payload: seg.Marshal(srcIP, dstIP)}
	frame := (&dataplane.Ethernet{Dst: macB, Src: macA, EtherType: dataplane.EtherTypeIPv4,
		Payload: ip.Marshal()}).Marshal()

	if !rewriteFrame(frame, openflow.ActionSetNWSrc{Addr: newSrc}) {
		t.Fatal("SetNWSrc rewrite failed")
	}
	eth, _ := dataplane.UnmarshalEthernet(frame)
	gotIP, err := dataplane.UnmarshalIPv4(eth.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotIP.Src != newSrc {
		t.Errorf("nw_src = %s", gotIP.Src)
	}
	if _, err := dataplane.UnmarshalTCP(gotIP.Src, gotIP.Dst, gotIP.Payload); err != nil {
		t.Fatalf("TCP checksum broken after rewrite: %v", err)
	}
}

func TestRewriteTOS(t *testing.T) {
	srcIP := netaddr.MustParseIPv4("10.0.0.1")
	dstIP := netaddr.MustParseIPv4("10.0.0.2")
	echo := &dataplane.ICMPEcho{IsRequest: true, Ident: 1, Seq: 1}
	ip := &dataplane.IPv4{TTL: 64, Protocol: dataplane.ProtoICMP, Src: srcIP, Dst: dstIP, Payload: echo.Marshal()}
	frame := (&dataplane.Ethernet{Dst: macB, Src: macA, EtherType: dataplane.EtherTypeIPv4,
		Payload: ip.Marshal()}).Marshal()
	if !rewriteFrame(frame, openflow.ActionSetNWTOS{TOS: 0x28}) {
		t.Fatal("SetNWTOS rewrite failed")
	}
	eth, _ := dataplane.UnmarshalEthernet(frame)
	gotIP, err := dataplane.UnmarshalIPv4(eth.Payload)
	if err != nil {
		t.Fatalf("IP checksum broken: %v", err)
	}
	if gotIP.TOS != 0x28 {
		t.Errorf("tos = %#x", gotIP.TOS)
	}
}

func TestRewriteRejectsNonIP(t *testing.T) {
	arp := &dataplane.ARP{Op: dataplane.ARPOpRequest, SenderMAC: macA}
	frame := (&dataplane.Ethernet{Dst: netaddr.Broadcast, Src: macA,
		EtherType: dataplane.EtherTypeARP, Payload: arp.Marshal()}).Marshal()
	if rewriteFrame(frame, openflow.ActionSetNWSrc{Addr: netaddr.IPv4{1, 2, 3, 4}}) {
		t.Error("IP rewrite applied to an ARP frame")
	}
	if rewriteFrame(frame, openflow.ActionSetTPSrc{Port: 1}) {
		t.Error("TP rewrite applied to an ARP frame")
	}
	// DL rewrites apply to any Ethernet frame.
	if !rewriteFrame(frame, openflow.ActionSetDLSrc{Addr: macB}) {
		t.Error("DL rewrite rejected")
	}
}
