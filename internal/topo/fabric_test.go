package topo

import (
	"runtime"
	"testing"
	"time"

	"attain/internal/controller"
	"attain/internal/netaddr"
	"attain/internal/telemetry"
)

func TestMarshalUnmarshalLLDP(t *testing.T) {
	frame := MarshalLLDP(0x1234_5678_9abc, 42, netaddr.MAC{0x0e, 0, 0, 1, 0, 42})
	dpid, port, ok := UnmarshalLLDP(frame)
	if !ok {
		t.Fatalf("UnmarshalLLDP: ok=false for frame built by MarshalLLDP")
	}
	if dpid != 0x1234_5678_9abc || port != 42 {
		t.Fatalf("round trip = (%#x, %d), want (0x123456789abc, 42)", dpid, port)
	}

	// Non-LLDP traffic must not parse.
	if _, _, ok := UnmarshalLLDP([]byte{1, 2, 3}); ok {
		t.Fatalf("UnmarshalLLDP accepted a runt frame")
	}
	frame[12], frame[13] = 0x08, 0x00 // rewrite EtherType to IPv4
	if _, _, ok := UnmarshalLLDP(frame); ok {
		t.Fatalf("UnmarshalLLDP accepted an IPv4 frame")
	}
}

// startFabric builds and starts a fabric over g with fast probe pacing,
// registering cleanup.
func startFabric(t *testing.T, g *Graph, mode LinkMode) *Fabric {
	t.Helper()
	f, err := NewFabric(FabricConfig{
		Graph:         g,
		Profile:       controller.ProfileFloodlight,
		Telemetry:     telemetry.New(telemetry.Options{}),
		LinkMode:      mode,
		ProbeInterval: 20 * time.Millisecond,
		EchoInterval:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(f.Stop)
	return f
}

func testBringupDiscovery(t *testing.T, g *Graph, mode LinkMode) {
	f := startFabric(t, g, mode)

	if _, err := f.WaitConnected(15 * time.Second); err != nil {
		t.Fatalf("WaitConnected: %v", err)
	}
	if _, ok := f.WaitDiscovery(2*len(g.Links), 15*time.Second); !ok {
		t.Fatalf("discovery stalled at %d/%d adjacencies", f.Disc.LinkCount(), 2*len(g.Links))
	}
	discovered, phantom, missing := f.Disc.Audit(g)
	if phantom != 0 || missing != 0 || discovered != 2*len(g.Links) {
		t.Fatalf("Audit = (discovered=%d phantom=%d missing=%d), want (%d, 0, 0)",
			discovered, phantom, missing, 2*len(g.Links))
	}
}

func TestFabricBringupNetem(t *testing.T) {
	g, err := LeafSpine(2, 3, 1, 7)
	if err != nil {
		t.Fatalf("LeafSpine: %v", err)
	}
	testBringupDiscovery(t, g, LinkNetem)
}

func TestFabricBringupDirect(t *testing.T) {
	// LinkDirect is the 1,000-switch path; exercise it on a small graph.
	g, err := Ring(6, 1, 11)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	testBringupDiscovery(t, g, LinkDirect)
}

// TestFabricStopLeavesNothingBehind stops an LLDP-poisoned, injector-on
// fabric mid-run: afterwards every goroutine the switch host, injector,
// controller, discovery and links started is gone.
func TestFabricStopLeavesNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	g, err := LeafSpine(2, 4, 1, 3)
	if err != nil {
		t.Fatalf("LeafSpine: %v", err)
	}
	f, err := NewFabric(FabricConfig{
		Graph:         g,
		Profile:       controller.ProfileFloodlight,
		Attack:        LLDPPoisonAttack(g.System(), nil),
		Templates:     PhantomTemplates(g),
		LinkMode:      LinkNetem,
		ProbeInterval: 20 * time.Millisecond,
		EchoInterval:  50 * time.Millisecond,
		Shards:        2,
	})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := f.WaitConnected(15 * time.Second); err != nil {
		f.Stop()
		t.Fatalf("WaitConnected: %v", err)
	}
	// Stop lands once poisoned discovery traffic is flowing.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, phantom, _ := f.Disc.Audit(g); phantom > 0 {
			break
		}
		if time.Now().After(deadline) {
			f.Stop()
			t.Fatal("no phantom adjacency before Stop")
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.Stop()

	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Stop, want at most %d:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunScenarioBaseline(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		Topology:      "linear:3x1",
		Seed:          3,
		ProbeInterval: 20 * time.Millisecond,
		EchoInterval:  100 * time.Millisecond,
		Observe:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if !res.Connected || !res.DiscoveryConverged {
		t.Fatalf("baseline did not converge: %+v", res)
	}
	if res.Deviation {
		t.Fatalf("baseline reported deviation: %+v", res)
	}
	if res.Switches != 3 || res.Links != 2 || res.Hosts != 3 {
		t.Fatalf("shape = %d/%d/%d, want 3/2/3", res.Switches, res.Links, res.Hosts)
	}
}

func TestRunScenarioLLDPPoison(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		Topology:      "linear:3x1",
		Attack:        AttackLLDPPoison,
		Seed:          5,
		ProbeInterval: 20 * time.Millisecond,
		EchoInterval:  50 * time.Millisecond,
		Observe:       10 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if !res.Deviation || res.PhantomLinks == 0 {
		t.Fatalf("poisoning produced no phantom links: %+v", res)
	}
	if !res.Connected {
		t.Fatalf("fabric did not connect under attack: %+v", res)
	}
}

func TestRunScenarioLinkFlap(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		Topology:      "ring:4x1",
		Attack:        AttackLinkFlap,
		Seed:          9,
		ProbeInterval: 20 * time.Millisecond,
		EchoInterval:  100 * time.Millisecond,
		Observe:       10 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if res.FlapsApplied == 0 {
		t.Fatalf("no flaps applied: %+v", res)
	}
	if !res.Deviation || res.PortStatusEvents == 0 {
		t.Fatalf("flap storm produced no PORT_STATUS churn: %+v", res)
	}
}

func TestRunScenarioFingerprint(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		Topology:      "linear:2x1",
		Attack:        AttackFingerprint,
		Seed:          13,
		ProbeInterval: 20 * time.Millisecond,
		EchoInterval:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if res.Fingerprint == nil {
		t.Fatalf("no fingerprint result: %+v", res)
	}
	if res.Fingerprint.Probes == 0 || res.Fingerprint.Guess == "" {
		t.Fatalf("fingerprint gathered no data: %+v", res.Fingerprint)
	}
}

func TestRunScenarioUnknownAttack(t *testing.T) {
	if _, err := RunScenario(ScenarioConfig{Topology: "linear:2", Attack: "nope"}); err == nil {
		t.Fatalf("RunScenario accepted unknown attack")
	}
}

func TestFlapStormDeterministic(t *testing.T) {
	g, err := Ring(5, 0, 21)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	f := startFabric(t, g, LinkDirect)
	if _, err := f.WaitConnected(15 * time.Second); err != nil {
		t.Fatalf("WaitConnected: %v", err)
	}
	flaps := f.FlapStorm(1, 2, 3, time.Millisecond)
	if flaps != 6 { // 2 links x 3 rounds
		t.Fatalf("FlapStorm applied %d flaps, want 6", flaps)
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.Disc.PortStatusEvents() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if f.Disc.PortStatusEvents() == 0 {
		t.Fatalf("controller saw no PORT_STATUS after flap storm")
	}
}

func BenchmarkFabricBringup(b *testing.B) {
	g, err := LeafSpine(2, 4, 0, 17)
	if err != nil {
		b.Fatalf("LeafSpine: %v", err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := NewFabric(FabricConfig{
			Graph:         g,
			LinkMode:      LinkDirect,
			ProbeInterval: 10 * time.Millisecond,
			EchoInterval:  time.Second,
		})
		if err != nil {
			b.Fatalf("NewFabric: %v", err)
		}
		if err := f.Start(); err != nil {
			b.Fatalf("Start: %v", err)
		}
		if _, err := f.WaitConnected(15 * time.Second); err != nil {
			b.Fatalf("WaitConnected: %v", err)
		}
		f.Stop()
	}
}
