package switchsim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"attain/internal/clock"
	"attain/internal/controller"
	"attain/internal/dataplane"
	"attain/internal/netem"
	"attain/internal/openflow"
)

// rig is a one-switch, two-host test network with a learning-switch
// controller.
type rig struct {
	clk  clock.Clock
	ctrl *controller.Controller
	app  *controller.LearningSwitch
	sw   *Switch
	h1   *dataplane.Host
	h2   *dataplane.Host
}

func newRig(t *testing.T, profile controller.Profile, mode FailMode) *rig {
	t.Helper()
	clk := clock.New()
	tr := netem.NewMemTransport()
	app := controller.NewLearningSwitch(profile)
	ctrl := controller.New(controller.Config{
		Name: "c1", ListenAddr: "c1", Transport: tr, App: app,
	}, clk)
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	sw := New(Config{
		Name: "s1", DPID: 1, ControllerAddr: "c1", Transport: tr,
		FailMode:          mode,
		EchoInterval:      50 * time.Millisecond,
		EchoTimeout:       150 * time.Millisecond,
		ReconnectInterval: 50 * time.Millisecond,
		ExpiryInterval:    50 * time.Millisecond,
	}, clk)

	h1 := dataplane.NewHost("h1", macA, ipA, clk)
	h2 := dataplane.NewHost("h2", macB, ipB, clk)
	h1.AttachOutput(sw.AttachPort(1, "s1-eth1", h1.Input))
	h2.AttachOutput(sw.AttachPort(2, "s1-eth2", h2.Input))
	sw.Start()

	r := &rig{clk: clk, ctrl: ctrl, app: app, sw: sw, h1: h1, h2: h2}
	t.Cleanup(func() {
		sw.Stop()
		ctrl.Stop()
	})
	r.waitConnected(t, true)
	return r
}

func (r *rig) waitConnected(t *testing.T, want bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.sw.Connected() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("switch connected state never became %v", want)
}

func TestSwitchConnectsAndHandshakes(t *testing.T) {
	r := newRig(t, controller.ProfileFloodlight, FailSecure)
	sws := r.ctrl.Switches()
	if len(sws) != 1 {
		t.Fatalf("controller sees %d switches, want 1", len(sws))
	}
	sc, ok := sws[1]
	if !ok {
		t.Fatal("controller did not record DPID 1")
	}
	if got := len(sc.Ports()); got != 2 {
		t.Errorf("FEATURES_REPLY carried %d ports, want 2", got)
	}
}

func pingOK(t *testing.T, r *rig) time.Duration {
	t.Helper()
	rtt, err := r.h1.Ping(r.h2.IP(), 2*time.Second)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	return rtt
}

func TestPingThroughLearningSwitch(t *testing.T) {
	for _, profile := range []controller.Profile{
		controller.ProfileFloodlight, controller.ProfilePOX, controller.ProfileRyu,
	} {
		t.Run(profile.String(), func(t *testing.T) {
			r := newRig(t, profile, FailSecure)
			pingOK(t, r)
			// After the first exchange both MACs are learned.
			tbl := r.app.MACTable(1)
			if tbl[macA] != 1 || tbl[macB] != 2 {
				t.Errorf("controller MAC table = %v", tbl)
			}
		})
	}
}

func TestSecondPingUsesInstalledFlows(t *testing.T) {
	r := newRig(t, controller.ProfileFloodlight, FailSecure)
	pingOK(t, r)
	// Flows for the echo exchange are installed; wait for writes to land.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && r.sw.Table().Len() < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	if r.sw.Table().Len() < 2 {
		t.Fatalf("flow table has %d entries, want >= 2", r.sw.Table().Len())
	}
	before := r.sw.Stats().PacketInsSent
	pingOK(t, r)
	after := r.sw.Stats().PacketInsSent
	if after != before {
		t.Errorf("second ping generated %d extra packet-ins, want 0", after-before)
	}
}

func TestRyuInstallsL2OnlyMatches(t *testing.T) {
	r := newRig(t, controller.ProfileRyu, FailSecure)
	pingOK(t, r)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && r.sw.Table().Len() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	snap := r.sw.Table().Snapshot()
	if len(snap) == 0 {
		t.Fatal("no flows installed")
	}
	for _, e := range snap {
		if e.Match.Wildcards&openflow.WildcardDLSrc != 0 || e.Match.Wildcards&openflow.WildcardDLDst != 0 {
			t.Errorf("Ryu flow does not pin L2 addresses: %s", e.Match)
		}
		if e.Match.NWSrcMaskBits() != 0 || e.Match.NWDstMaskBits() != 0 {
			t.Errorf("Ryu flow pins network addresses: %s", e.Match)
		}
	}
}

func TestFloodlightInstallsExactMatches(t *testing.T) {
	r := newRig(t, controller.ProfileFloodlight, FailSecure)
	pingOK(t, r)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && r.sw.Table().Len() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	snap := r.sw.Table().Snapshot()
	if len(snap) == 0 {
		t.Fatal("no flows installed")
	}
	for _, e := range snap {
		if e.Match.NWSrcMaskBits() != 32 || e.Match.NWDstMaskBits() != 32 {
			t.Errorf("Floodlight flow missing exact nw match: %s", e.Match)
		}
		if e.IdleTimeout != 5 {
			t.Errorf("Floodlight idle timeout = %d, want 5", e.IdleTimeout)
		}
	}
}

func TestFailSecureDropsAfterDisconnect(t *testing.T) {
	r := newRig(t, controller.ProfileFloodlight, FailSecure)
	pingOK(t, r)
	r.ctrl.Stop()
	r.waitConnected(t, false)
	// Let any installed flows expire (idle 5s is too long to wait; delete
	// them directly to model expiry).
	r.sw.Table().Clear()
	if _, err := r.h1.Ping(r.h2.IP(), 200*time.Millisecond); err == nil {
		t.Error("ping succeeded through fail-secure switch with empty table")
	}
	st := r.sw.Stats()
	if st.DroppedDisconnected == 0 {
		t.Error("no drops counted while disconnected")
	}
}

func TestFailSecureExistingFlowsStillForward(t *testing.T) {
	r := newRig(t, controller.ProfileFloodlight, FailSecure)
	pingOK(t, r)
	// Wait for ICMP flows to be installed before cutting the controller.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && r.sw.Table().Len() < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	r.ctrl.Stop()
	r.waitConnected(t, false)
	// ICMP flows match on the same 5-tuple, so a repeat ping reuses them.
	if _, err := r.h1.Ping(r.h2.IP(), 2*time.Second); err != nil {
		t.Errorf("ping over existing flows failed: %v", err)
	}
}

func TestFailSafeStandaloneForwarding(t *testing.T) {
	r := newRig(t, controller.ProfileFloodlight, FailSafe)
	pingOK(t, r)
	r.ctrl.Stop()
	r.waitConnected(t, false)
	r.sw.Table().Clear()
	if _, err := r.h1.Ping(r.h2.IP(), 2*time.Second); err != nil {
		t.Errorf("standalone ping failed: %v", err)
	}
	if r.sw.Stats().StandaloneForwards == 0 {
		t.Error("standalone path not exercised")
	}
}

func TestSwitchReconnects(t *testing.T) {
	r := newRig(t, controller.ProfileFloodlight, FailSecure)
	// Kill and restart the controller on the same address.
	r.ctrl.Stop()
	r.waitConnected(t, false)

	tr := netem.NewMemTransport()
	_ = tr // placeholder to show a fresh transport is NOT used; we reuse the rig's.
	app := controller.NewLearningSwitch(controller.ProfileFloodlight)
	ctrl2 := controller.New(controller.Config{
		Name: "c1b", ListenAddr: "c1", Transport: rigTransport(r), App: app,
	}, r.clk)
	if err := ctrl2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl2.Stop)
	r.waitConnected(t, true)
	if r.sw.Stats().Reconnects == 0 {
		t.Error("reconnect counter did not advance")
	}
}

// rigTransport digs the transport back out of the rig's controller config;
// kept as a helper so the reconnect test can share the mem network.
func rigTransport(r *rig) netem.Transport { return r.sw.cfg.Transport }

func TestPacketOutWithData(t *testing.T) {
	r := newRig(t, controller.ProfileFloodlight, FailSecure)
	// Build an ICMP frame "from h1 to h2" and have the controller inject
	// it via PACKET_OUT with explicit data toward port 2.
	echo := &dataplane.ICMPEcho{IsRequest: true, Ident: 42, Seq: 1}
	ip := &dataplane.IPv4{TTL: 64, Protocol: dataplane.ProtoICMP, Src: ipA, Dst: ipB, Payload: echo.Marshal()}
	frame := (&dataplane.Ethernet{Dst: macB, Src: macA, EtherType: dataplane.EtherTypeIPv4, Payload: ip.Marshal()}).Marshal()

	sc := r.ctrl.Switches()[1]
	if sc == nil {
		t.Fatal("no switch connection")
	}
	before := r.h2.Stats().RxFrames
	err := sc.Send(&openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: 2}},
		Data:     frame,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && r.h2.Stats().RxFrames == before {
		time.Sleep(5 * time.Millisecond)
	}
	if r.h2.Stats().RxFrames == before {
		t.Error("packet-out frame never reached h2")
	}
}

func TestFlowExpiryIdleTimeout(t *testing.T) {
	clk := clock.NewScaled(20) // 20x so a 5s idle timeout passes in 250ms
	tr := netem.NewMemTransport()
	app := controller.NewLearningSwitch(controller.ProfileFloodlight)
	ctrl := controller.New(controller.Config{Name: "c1", ListenAddr: "c1", Transport: tr, App: app}, clk)
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	sw := New(Config{
		Name: "s1", DPID: 1, ControllerAddr: "c1", Transport: tr,
		ExpiryInterval: 100 * time.Millisecond,
	}, clk)
	h1 := dataplane.NewHost("h1", macA, ipA, clk)
	h2 := dataplane.NewHost("h2", macB, ipB, clk)
	h1.AttachOutput(sw.AttachPort(1, "p1", h1.Input))
	h2.AttachOutput(sw.AttachPort(2, "p2", h2.Input))
	sw.Start()
	t.Cleanup(func() { sw.Stop(); ctrl.Stop() })

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !sw.Connected() {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := h1.Ping(ipB, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) && sw.Table().Len() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if sw.Table().Len() == 0 {
		t.Fatal("no flows installed")
	}
	// Idle timeout is 5 virtual seconds = 250ms wall; wait for eviction.
	for time.Now().Before(deadline) && sw.Table().Len() > 0 {
		time.Sleep(20 * time.Millisecond)
	}
	if n := sw.Table().Len(); n != 0 {
		t.Errorf("flows remaining after idle timeout: %d", n)
	}
}

// eventually spins until cond holds, failing the test after five seconds
// of wall time. The Start tests run on a mock clock, so nothing here
// sleeps: progress comes from the switch's own goroutines.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func startController(t *testing.T, tr netem.Transport, clk clock.Clock) *controller.Controller {
	t.Helper()
	ctrl := controller.New(controller.Config{
		Name: "c1", ListenAddr: "c1", Transport: tr,
		App: controller.NewLearningSwitch(controller.ProfileFloodlight),
	}, clk)
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// TestStartRedialsUntilControllerListens starts a switch before its
// controller exists: the failed dial reaches OnConnError, the switch waits
// ReconnectInterval of virtual time, counts a reconnect, and connects once
// the controller is up.
func TestStartRedialsUntilControllerListens(t *testing.T) {
	const redial = 2 * time.Second
	clk := clock.NewMock(time.Unix(1000, 0))
	tr := netem.NewMemTransport()
	// Buffered past the one or two failures a mock-clock run can see, so
	// the hook never blocks the admitting goroutine.
	errs := make(chan error, 8)
	sw := New(Config{
		Name: "s1", DPID: 1, ControllerAddr: "c1", Transport: tr,
		ReconnectInterval: redial,
		OnConnError:       func(err error) { errs <- err },
	}, clk)
	sw.Start()
	defer sw.Stop()

	select {
	case err := <-errs:
		if !errors.Is(err, netem.ErrConnRefused) {
			t.Fatalf("OnConnError got %v, want a refused dial", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnConnError never fired for the refused dial")
	}
	// The host's tick and the pending redial are the only timers.
	eventually(t, "the redial timer", func() bool { return clk.Waiters() == 2 })
	if st := sw.Stats(); st.Reconnects != 0 || sw.Connected() {
		t.Fatalf("redialed before ReconnectInterval: reconnects=%d connected=%v", st.Reconnects, sw.Connected())
	}

	ctrl := startController(t, tr, clk)
	defer ctrl.Stop()
	clk.Advance(redial)
	eventually(t, "the redial to connect", sw.Connected)
	eventually(t, "the controller to see the switch", func() bool { return ctrl.SwitchCount() == 1 })
	if n := sw.Stats().Reconnects; n != 1 {
		t.Fatalf("reconnects = %d, want 1", n)
	}
}

// TestStartStopLeavesNothingBehind runs 32 Start()ed switches through a
// controller restart and stops them: every goroutine they started is gone
// afterwards. Stop is idempotent and a no-op on a switch never Started.
func TestStartStopLeavesNothingBehind(t *testing.T) {
	const n = 32
	const redial = time.Second
	before := runtime.NumGoroutine()
	clk := clock.NewMock(time.Unix(1000, 0))
	tr := netem.NewBufferedMemTransport(0)
	ctrl := startController(t, tr, clk)

	sws := make([]*Switch, n)
	for i := range sws {
		sws[i] = New(Config{
			Name: fmt.Sprintf("s%d", i+1), DPID: uint64(i + 1),
			ControllerAddr: "c1", Transport: tr,
			// No echo probes: virtual time jumps by whole redial
			// intervals below and must not time sessions out.
			EchoInterval:      time.Hour,
			ReconnectInterval: redial,
		}, clk)
		sws[i].Start()
	}
	allConnected := func(want bool) func() bool {
		return func() bool {
			for _, sw := range sws {
				if sw.Connected() != want {
					return false
				}
			}
			return true
		}
	}
	eventually(t, "every switch to connect", allConnected(true))

	ctrl.Stop()
	eventually(t, "every switch to drop", allConnected(false))
	ctrl = startController(t, tr, clk)
	// Redials wait on the mock clock; step it one redial interval per
	// 10ms of wall time until every switch is back.
	last := time.Now()
	eventually(t, "every switch to reconnect", func() bool {
		if time.Since(last) > 10*time.Millisecond {
			clk.Advance(redial)
			last = time.Now()
		}
		return allConnected(true)() && ctrl.SwitchCount() == n
	})
	for _, sw := range sws {
		if sw.Stats().Reconnects == 0 {
			t.Fatalf("%s reconnected without counting it", sw.Name())
		}
	}

	for _, sw := range sws {
		sw.Stop()
		sw.Stop()
		if sw.Connected() {
			t.Fatalf("%s still connected after Stop", sw.Name())
		}
	}
	ctrl.Stop()
	New(Config{Name: "idle", DPID: 99}, clk).Stop()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}
