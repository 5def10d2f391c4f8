package switchsim

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"attain/internal/clock"
	"attain/internal/controller"
	"attain/internal/dataplane"
	"attain/internal/netaddr"
	"attain/internal/netem"
	"attain/internal/openflow"
)

// hostRig is a shard-hosted fleet of switches against one real controller
// over the in-memory transport.
type hostRig struct {
	clk  clock.Clock
	tr   *netem.MemTransport
	ctrl *controller.Controller
	app  *controller.LearningSwitch
	host *Host
	sws  []*Switch
}

func newHostRig(t *testing.T, n, shards int) *hostRig {
	t.Helper()
	clk := clock.New()
	tr := netem.NewBufferedMemTransport(0)
	app := controller.NewLearningSwitch(controller.ProfileFloodlight)
	ctrl := controller.New(controller.Config{
		Name: "c1", ListenAddr: "c1", Transport: tr, App: app,
	}, clk)
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	host := NewHost(HostConfig{
		Shards: shards,
		Tick:   10 * time.Millisecond,
		Clock:  clk,
	})
	host.Start()
	r := &hostRig{clk: clk, tr: tr, ctrl: ctrl, app: app, host: host}
	t.Cleanup(func() {
		host.Stop()
		ctrl.Stop()
	})
	for i := 0; i < n; i++ {
		sw := New(Config{
			Name: fmt.Sprintf("s%d", i+1), DPID: uint64(i + 1),
			ControllerAddr: "c1", Transport: tr,
			EchoInterval:      30 * time.Millisecond,
			EchoTimeout:       200 * time.Millisecond,
			ReconnectInterval: 20 * time.Millisecond,
			ExpiryInterval:    20 * time.Millisecond,
		}, clk)
		if err := host.Admit(sw); err != nil {
			t.Fatalf("admit %s: %v", sw.Name(), err)
		}
		r.sws = append(r.sws, sw)
	}
	return r
}

func (r *hostRig) waitSwitches(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.ctrl.SwitchCount() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("controller sees %d switches, want %d", r.ctrl.SwitchCount(), want)
}

func TestHostAdmitsFleet(t *testing.T) {
	const n = 40
	r := newHostRig(t, n, 4)
	r.waitSwitches(t, n)
	for _, sw := range r.sws {
		if !sw.Connected() {
			t.Fatalf("%s not connected after admit", sw.Name())
		}
	}
	// Every hosted switch must answer a features round-trip through the
	// shard loop (send path: hostedConn → shard queue → coalesced write).
	for _, sc := range r.ctrl.Switches() {
		if len(sc.Ports()) != 0 {
			t.Fatalf("unexpected ports on host-admitted switch: %v", sc.Ports())
		}
	}
}

func TestHostedDataPath(t *testing.T) {
	r := newHostRig(t, 1, 1)
	r.waitSwitches(t, 1)
	sw := r.sws[0]

	h1 := dataplane.NewHost("h1", macA, ipA, r.clk)
	h2 := dataplane.NewHost("h2", macB, ipB, r.clk)
	h1.AttachOutput(sw.AttachPort(1, "s1-eth1", h1.Input))
	h2.AttachOutput(sw.AttachPort(2, "s1-eth2", h2.Input))

	// A ping through the hosted switch exercises PACKET_IN → controller →
	// FLOW_MOD/PACKET_OUT → datapath, all through the shard loop.
	if _, err := h1.Ping(h2.IP(), 2*time.Second); err != nil {
		t.Fatalf("ping through hosted switch: %v", err)
	}
	if sw.Stats().PacketInsSent == 0 {
		t.Fatal("hosted switch never sent PACKET_IN")
	}
	if sw.Table().Len() == 0 {
		t.Fatal("controller flow mods never landed in the hosted table")
	}
}

func TestHostedReconnect(t *testing.T) {
	r := newHostRig(t, 3, 2)
	r.waitSwitches(t, 3)

	// Kill every live control conn server-side; hosted switches must
	// redial through reconnectLater and re-handshake.
	for _, sc := range r.ctrl.Switches() {
		sc.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := r.ctrl.SwitchCount() == 3
		if all {
			for _, sw := range r.sws {
				if !sw.Connected() || sw.Stats().Reconnects == 0 {
					all = false
					break
				}
			}
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, sw := range r.sws {
		t.Logf("%s connected=%v reconnects=%d", sw.Name(), sw.Connected(), sw.Stats().Reconnects)
	}
	t.Fatal("hosted switches did not reconnect after controller-side close")
}

func TestHostedEchoLiveness(t *testing.T) {
	r := newHostRig(t, 1, 1)
	r.waitSwitches(t, 1)
	// The shard tick must keep the session alive well past several echo
	// timeouts: probes go out, replies refresh lastRx.
	time.Sleep(500 * time.Millisecond)
	if !r.sws[0].Connected() {
		t.Fatal("hosted session died despite echo traffic")
	}
}

func TestHostAdmitAfterStop(t *testing.T) {
	clk := clock.New()
	tr := netem.NewBufferedMemTransport(0)
	app := controller.NewLearningSwitch(controller.ProfileFloodlight)
	ctrl := controller.New(controller.Config{
		Name: "c1", ListenAddr: "c1", Transport: tr, App: app,
	}, clk)
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	host := NewHost(HostConfig{Clock: clk})
	host.Start()
	host.Stop()
	sw := New(Config{Name: "s1", DPID: 1, ControllerAddr: "c1", Transport: tr}, clk)
	if err := host.Admit(sw); err == nil {
		t.Fatal("admit after stop must fail")
	}
}

func TestHostConcurrentAdmitAndTraffic(t *testing.T) {
	// Race-stress the shard-hosted path: concurrent admissions across
	// shards, controller messages, data-plane inputs, and stat polls all
	// at once (run under -race in CI's whole-repo pass).
	const n = 24
	r := newHostRig(t, 0, 3)
	var wg sync.WaitGroup
	sws := make([]*Switch, n)
	for i := 0; i < n; i++ {
		sw := New(Config{
			Name: fmt.Sprintf("s%d", i+1), DPID: uint64(i + 1),
			ControllerAddr: "c1", Transport: r.tr,
			EchoInterval: 20 * time.Millisecond, ExpiryInterval: 10 * time.Millisecond,
		}, r.clk)
		sws[i] = sw
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.host.Admit(sw); err != nil {
				t.Errorf("admit %s: %v", sw.Name(), err)
			}
		}()
	}
	wg.Wait()
	r.sws = sws
	r.waitSwitches(t, n)

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(2)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, sw := range sws {
					sw.Stats()
					sw.Connected()
				}
			}
		}
	}()
	go func() {
		defer pollers.Done()
		frame := buildEthFrame(macA, macB, 0x0800, []byte("payload"))
		for {
			select {
			case <-stop:
				return
			default:
				for _, sw := range sws {
					sw.input(1, frame)
					sw.SetLinkDown(1, false)
				}
			}
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	pollers.Wait()
}

// buildEthFrame assembles a minimal Ethernet frame for input stress.
func buildEthFrame(dst, src netaddr.MAC, etherType uint16, payload []byte) []byte {
	frame := make([]byte, 0, 14+len(payload))
	frame = append(frame, dst[:]...)
	frame = append(frame, src[:]...)
	frame = append(frame, byte(etherType>>8), byte(etherType))
	return append(frame, payload...)
}

// TestHostedExpiryWhileDisconnected pins that a hosted switch keeps timing
// its flows out after its control session dies, as a Start()ed switch's
// expiryLoop does: a flow with a hard timeout is gone once the clock passes
// it, controller or no controller.
func TestHostedExpiryWhileDisconnected(t *testing.T) {
	clk := clock.NewMock(time.Unix(1000, 0))
	tr := netem.NewBufferedMemTransport(0)
	ln, err := tr.Listen("c1")
	if err != nil {
		t.Fatal(err)
	}
	// A scripted controller: handshake, install one flow that lives a
	// second, and confirm it landed.
	installed := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_ = openflow.WriteMessage(c, 1, &openflow.Hello{})
		_ = openflow.WriteMessage(c, 2, &openflow.FlowMod{
			Match: openflow.MatchAll(), Command: openflow.FlowModAdd, HardTimeout: 1,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		})
		_ = openflow.WriteMessage(c, 3, &openflow.BarrierRequest{})
		for {
			raw, err := openflow.ReadRaw(c)
			if err != nil {
				return
			}
			if hd, _, err := openflow.Unmarshal(raw); err == nil && hd.Type == openflow.TypeBarrierReply {
				installed <- c
				return
			}
		}
	}()

	host := NewHost(HostConfig{Clock: clk})
	host.Start()
	defer host.Stop()
	sw := New(Config{
		Name: "s1", DPID: 1, ControllerAddr: "c1", Transport: tr,
		ReconnectInterval: time.Hour,
	}, clk)
	if err := host.Admit(sw); err != nil {
		t.Fatal(err)
	}
	var ctrlSide net.Conn
	select {
	case ctrlSide = <-installed:
	case <-time.After(5 * time.Second):
		t.Fatal("flow never installed")
	}
	if n := sw.Table().Len(); n != 1 {
		t.Fatalf("table has %d flows after install, want 1", n)
	}

	// Kill the controller side for good: the session drops and no redial
	// can land.
	_ = ln.Close()
	_ = ctrlSide.Close()
	deadline := time.Now().Add(5 * time.Second)
	for sw.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("session never dropped")
		}
		time.Sleep(time.Millisecond)
	}

	// Past the hard timeout the next tick's sweep must evict the flow.
	clk.Advance(2 * time.Second)
	for sw.Table().Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("disconnected hosted switch still holds %d flows past their hard timeout", sw.Table().Len())
		}
		time.Sleep(time.Millisecond)
	}
}
