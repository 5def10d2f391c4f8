package topo

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"attain/internal/controller"
	"attain/internal/netem"
	"attain/internal/telemetry"
)

// poisonProjection is the deterministic outcome of an LLDP-poison run once
// discovery and the phantom set have both saturated. Partial phantom counts
// are timing-dependent (one fabricated link lands per victim heartbeat),
// but the saturated table is not: every real adjacency plus exactly one
// phantom adjacency per victim switch.
type poisonProjection struct {
	connected  bool
	converged  bool
	discovered int
	phantom    int
	missing    int
}

// runPoisonToSaturation brings up a poisoned fabric with the given shard
// count and waits until the controller's link table stops changing: all
// real adjacencies learned, one phantom per switch, nothing missing.
func runPoisonToSaturation(t *testing.T, shards int) poisonProjection {
	t.Helper()
	g, err := Parse("linear:4x1", 23)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sys := g.System()
	f, err := NewFabric(FabricConfig{
		Graph:          g,
		Profile:        controller.ProfileFloodlight,
		Telemetry:      telemetry.New(telemetry.Options{}),
		Attack:         LLDPPoisonAttack(sys, nil),
		Templates:      PhantomTemplates(g),
		ProbeInterval:  20 * time.Millisecond,
		EchoInterval:   50 * time.Millisecond,
		StochasticSeed: 23,
		Shards:         shards,
		WaveSize:       2,
	})
	if err != nil {
		t.Fatalf("NewFabric(shards=%d): %v", shards, err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start(shards=%d): %v", shards, err)
	}
	defer f.Stop()

	var p poisonProjection
	if _, err := f.WaitConnected(15 * time.Second); err != nil {
		t.Fatalf("WaitConnected(shards=%d): %v", shards, err)
	}
	p.connected = true
	_, p.converged = f.WaitDiscovery(2*len(g.Links), 15*time.Second)

	// Saturation: the poison template fabricates the same
	// (phantom:1 -> victim:1) adjacency per victim, so the phantom set
	// stops growing at one entry per switch.
	wantPhantom := len(g.Switches)
	deadline := time.Now().Add(20 * time.Second)
	for {
		p.discovered, p.phantom, p.missing = f.Disc.Audit(g)
		if p.discovered == 2*len(g.Links) && p.phantom == wantPhantom && p.missing == 0 {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards=%d: link table never saturated: discovered=%d/%d phantom=%d/%d missing=%d",
				shards, p.discovered, 2*len(g.Links), p.phantom, wantPhantom, p.missing)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFabricShardEquivalence pins that shard count is an execution
// strategy, not a semantics change. testdata/poison_saturated_audit.golden
// is the saturated audit the goroutine-per-switch fabric (Shards=0 at the
// commit before its removal) reached on this poisoned topology; one shared
// loop and several must reach exactly it.
func TestFabricShardEquivalence(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "poison_saturated_audit.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(golden))
	for _, shards := range []int{1, 4} {
		if got := fmt.Sprintf("%+v", runPoisonToSaturation(t, shards)); got != want {
			t.Fatalf("shards=%d diverged from the goroutine-mode golden:\n got %s\nwant %s", shards, got, want)
		}
	}
}

// gatedTransport lets the first allow dials through, blocks the rest until
// Release — a deterministic way to freeze bring-up mid-wave.
type gatedTransport struct {
	netem.Transport
	mu      sync.Mutex
	allow   int
	open    bool
	waiting []chan struct{}
}

func (g *gatedTransport) Dial(addr string) (net.Conn, error) {
	g.mu.Lock()
	if !g.open && g.allow <= 0 {
		ch := make(chan struct{})
		g.waiting = append(g.waiting, ch)
		g.mu.Unlock()
		<-ch
		return g.Transport.Dial(addr)
	}
	if !g.open {
		g.allow--
	}
	g.mu.Unlock()
	return g.Transport.Dial(addr)
}

func (g *gatedTransport) Blocked() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.waiting)
}

func (g *gatedTransport) Release() {
	g.mu.Lock()
	g.open = true
	for _, ch := range g.waiting {
		close(ch)
	}
	g.waiting = nil
	g.mu.Unlock()
}

// TestFabricTornBringup cancels StartContext's context mid-wave and checks
// the torn bring-up drains cleanly: in-flight admissions finish, waves not
// yet started are abandoned, and Stop returns without hanging.
func TestFabricTornBringup(t *testing.T) {
	g, err := Ring(8, 0, 31)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	gate := &gatedTransport{Transport: netem.NewBufferedMemTransport(0), allow: 4}
	f, err := NewFabric(FabricConfig{
		Graph:         g,
		Transport:     gate,
		Telemetry:     telemetry.New(telemetry.Options{}),
		ProbeInterval: 20 * time.Millisecond,
		EchoInterval:  100 * time.Millisecond,
		Shards:        2,
		WaveSize:      2,
	})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := f.StartContext(ctx); err != nil {
		t.Fatalf("StartContext: %v", err)
	}

	// Waves 1-2 (4 switches) complete; wave 3's two dials block on the gate.
	deadline := time.Now().Add(10 * time.Second)
	for !(f.Ctrl.SwitchCount() == 4 && gate.Blocked() == 2) {
		if time.Now().After(deadline) {
			t.Fatalf("bring-up never froze mid-wave: connected=%d blocked=%d", f.Ctrl.SwitchCount(), gate.Blocked())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Tear the bring-up: cancel first so wave 4 is abandoned, then let the
	// frozen wave-3 admissions finish.
	cancel()
	gate.Release()

	deadline = time.Now().Add(10 * time.Second)
	for f.BringupWaves() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("wave 3 never drained: waves=%d connected=%d", f.BringupWaves(), f.Ctrl.SwitchCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := f.Ctrl.SwitchCount(); n != 6 {
		t.Fatalf("connected %d switches after torn bring-up, want 6 (waves 1-3 only)", n)
	}

	done := make(chan struct{})
	go func() { f.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("Stop hung after torn bring-up")
	}
	if n := f.Ctrl.SwitchCount(); n > 6 {
		t.Fatalf("abandoned wave ran anyway: %d switches connected", n)
	}
}

// TestFabricAutoCutoverBoundary pins the LinkAuto policy at its boundary:
// one switch below DirectThreshold keeps netem links, the threshold itself
// (and fabric scale far beyond it) cuts over to direct delivery.
func TestFabricAutoCutoverBoundary(t *testing.T) {
	buildMode := func(n int) LinkMode {
		t.Helper()
		g, err := Ring(n, 0, 41)
		if err != nil {
			t.Fatalf("Ring(%d): %v", n, err)
		}
		// Construction only: links start lazily, so an unstarted fabric
		// costs nothing and needs no Stop.
		f, err := NewFabric(FabricConfig{Graph: g, Shards: 4})
		if err != nil {
			t.Fatalf("NewFabric(%d): %v", n, err)
		}
		return f.DataPlaneMode()
	}
	if mode := buildMode(DirectThreshold - 1); mode != LinkNetem {
		t.Fatalf("LinkAuto at %d switches = %v, want LinkNetem", DirectThreshold-1, mode)
	}
	if mode := buildMode(DirectThreshold); mode != LinkDirect {
		t.Fatalf("LinkAuto at %d switches = %v, want LinkDirect", DirectThreshold, mode)
	}

	if testing.Short() {
		t.Skip("skipping 5,000-switch construction in -short mode")
	}
	g, err := Jellyfish(5000, 4, 0, 41)
	if err != nil {
		t.Fatalf("Jellyfish: %v", err)
	}
	f, err := NewFabric(FabricConfig{Graph: g, Shards: 8})
	if err != nil {
		t.Fatalf("NewFabric(jellyfish:5000x4): %v", err)
	}
	if mode := f.DataPlaneMode(); mode != LinkDirect {
		t.Fatalf("LinkAuto at 5000 switches = %v, want LinkDirect", mode)
	}
}

// fdExhaustedTransport refuses every dial with EMFILE, the failure mode of
// TCP transports at fabric scale.
type fdExhaustedTransport struct {
	netem.Transport
}

func (fdExhaustedTransport) Dial(addr string) (net.Conn, error) {
	return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.EMFILE}
}

// TestFabricFDExhaustionFailsFast checks that running out of file
// descriptors during bring-up surfaces as a prompt, actionable error from
// WaitConnected instead of a silent retry loop that times out.
func TestFabricFDExhaustionFailsFast(t *testing.T) {
	g, err := Ring(4, 0, 47)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	f, err := NewFabric(FabricConfig{
		Graph:     g,
		Transport: fdExhaustedTransport{netem.NewMemTransport()},
		Telemetry: telemetry.New(telemetry.Options{}),
		Shards:    2,
	})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer f.Stop()

	start := time.Now()
	_, err = f.WaitConnected(30 * time.Second)
	if err == nil {
		t.Fatalf("WaitConnected succeeded with a dial path that cannot open sockets")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fd exhaustion took %s to surface; want fail-fast, not the timeout path", elapsed)
	}
	if !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("error does not wrap EMFILE: %v", err)
	}
	if !strings.Contains(err.Error(), "file descriptors") {
		t.Fatalf("error is not actionable: %v", err)
	}
}

// TestFabricShardedTelemetry runs a sharded bring-up to convergence and
// checks the per-shard fabric instrumentation: wave counters, the
// probe-batch histogram, the peak-goroutine gauge, and the host's shard
// counters all reflect the run.
func TestFabricShardedTelemetry(t *testing.T) {
	g, err := LeafSpine(2, 3, 0, 53)
	if err != nil {
		t.Fatalf("LeafSpine: %v", err)
	}
	tel := telemetry.New(telemetry.Options{})
	f, err := NewFabric(FabricConfig{
		Graph:         g,
		Telemetry:     tel,
		ProbeInterval: 20 * time.Millisecond,
		EchoInterval:  100 * time.Millisecond,
		Shards:        3,
		WaveSize:      2,
	})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer f.Stop()
	if _, err := f.WaitConnected(15 * time.Second); err != nil {
		t.Fatalf("WaitConnected: %v", err)
	}
	if _, ok := f.WaitDiscovery(2*len(g.Links), 15*time.Second); !ok {
		t.Fatalf("discovery stalled at %d/%d", f.Disc.LinkCount(), 2*len(g.Links))
	}

	sw := uint64(len(g.Switches))
	wantWaves := (sw + 1) / 2 // WaveSize 2
	if got := tel.Counter("fabric.bringup.waves").Value(); got != wantWaves || got != f.BringupWaves() {
		t.Fatalf("bringup waves counter=%d accessor=%d, want %d", got, f.BringupWaves(), wantWaves)
	}
	if got := tel.Counter("fabric.bringup.admitted").Value(); got != sw {
		t.Fatalf("bringup admitted = %d, want %d", got, sw)
	}
	if got := tel.Counter("fabric.bringup.failures").Value(); got != 0 {
		t.Fatalf("bringup failures = %d, want 0", got)
	}
	if tel.Histogram("fabric.probe.batch").Count() == 0 {
		t.Fatalf("probe-batch histogram recorded nothing")
	}
	if tel.Gauge("fabric.goroutines.peak").Value() <= 0 || f.PeakGoroutines() <= 0 {
		t.Fatalf("peak-goroutine gauge never sampled: gauge=%d accessor=%d",
			tel.Gauge("fabric.goroutines.peak").Value(), f.PeakGoroutines())
	}
	// Shard imbalance is observable from the per-shard message counters.
	var perShard [3]uint64
	var total uint64
	for i := range perShard {
		perShard[i] = tel.Counter(fmt.Sprintf("switchsim.host.shard.%d.msgs", i)).Value()
		total += perShard[i]
	}
	if total == 0 {
		t.Fatalf("no shard processed any message: %v", perShard)
	}
}

// TestFabricShardedStress exercises the shard-hosted path under churn with
// concurrent observers — the repo-wide -race run is the real assertion.
func TestFabricShardedStress(t *testing.T) {
	g, err := Parse("leafspine:2x4x1", 61)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sys := g.System()
	f, err := NewFabric(FabricConfig{
		Graph:          g,
		Telemetry:      telemetry.New(telemetry.Options{}),
		Attack:         LLDPPoisonAttack(sys, nil),
		Templates:      PhantomTemplates(g),
		ProbeInterval:  10 * time.Millisecond,
		EchoInterval:   20 * time.Millisecond,
		StochasticSeed: 61,
		Shards:         3,
		WaveSize:       3,
	})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := f.WaitConnected(15 * time.Second); err != nil {
		t.Fatalf("WaitConnected: %v", err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		f.FlapStorm(61, 3, 4, 2*time.Millisecond)
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.Disc.Audit(g)
			f.Disc.LinkCount()
			f.PeakGoroutines()
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	f.Stop()
}

// BenchmarkFabricConverge is the fabric-scale headline: full bring-up,
// discovery convergence, and LLDP-poison deviation on large jellyfish
// fabrics under the sharded event-loop core. Run with -benchtime=1x; the
// exported metrics land in BENCH_fabric.json via tools/benchjson and gate
// regressions through benchcmp.
func BenchmarkFabricConverge(b *testing.B) {
	cases := []struct {
		topo   string
		shards int
	}{
		{"jellyfish:1500x4", 4},
		{"jellyfish:5000x4", 8},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("%s/shards=%d", tc.topo, tc.shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunScenario(ScenarioConfig{
					Topology:        tc.topo,
					Attack:          AttackLLDPPoison,
					Seed:            17,
					Observe:         5 * time.Second,
					ConnectTimeout:  110 * time.Second,
					DiscoverTimeout: 110 * time.Second,
					Shards:          tc.shards,
				})
				if err != nil {
					b.Fatalf("RunScenario: %v", err)
				}
				if !res.Connected || !res.Deviation {
					b.Fatalf("scenario did not complete: connected=%v deviation=%v detail=%s",
						res.Connected, res.Deviation, res.Detail)
				}
				b.ReportMetric(res.ConnectMS, "connect-ms")
				b.ReportMetric(res.DiscoverMS, "discover-ms")
				b.ReportMetric(float64(res.PeakGoroutines), "peak-goroutines")
			}
		})
	}
}
