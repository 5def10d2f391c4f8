package topo

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"attain/internal/clock"
	"attain/internal/controller"
	"attain/internal/core/inject"
	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/netem"
	"attain/internal/openflow"
	"attain/internal/switchsim"
	"attain/internal/telemetry"
)

// LinkMode selects how data-plane links are realized.
//
// Two realizations exist because their costs part ways with fabric size.
// An idle netem.Link costs no goroutine and under a kilobyte of heap, but
// every frame in flight is a clock wait on its direction's delivery
// goroutine. On jellyfish:5000x4 under LLDP poisoning (8 shards, 2 CPUs,
// three alternating runs), LinkNetem peaked at 25.5-26.4k goroutines and
// 0.32-0.34 GB RSS and converged in a median 1.3 s from Start; LinkDirect
// peaked at 20k goroutines and 0.25-0.29 GB and converged in 0.8 s. The
// gap is per-frame timer wakeups for 50 µs of latency over 20,000 link
// directions, delivered on goroutines other than the receiving switch's
// loop. Large sweeps test control-plane behaviour, not data-plane timing,
// so they take direct delivery.
type LinkMode int

const (
	// LinkAuto uses netem links for small fabrics and direct delivery
	// from DirectThreshold switches up.
	LinkAuto LinkMode = iota
	// LinkNetem wires every link through a netem.Link, honouring the
	// graph's latency/bandwidth/loss profiles.
	LinkNetem
	// LinkDirect delivers frames synchronously between switches, ignoring
	// link profiles. Cheapest per frame; the right choice for 1,000-switch
	// sweeps where control-plane behaviour, not data-plane timing, is
	// under test.
	LinkDirect
)

// DirectThreshold is the switch count at which LinkAuto switches from
// netem links to direct delivery (see LinkMode for the measured cost).
const DirectThreshold = 200

// fabricRingSize is the per-direction buffer limit of the fabric's
// control channels (see the Transport default in NewFabric).
const fabricRingSize = 16 << 10

// FabricConfig describes one fabric instantiation.
type FabricConfig struct {
	// Graph is the validated topology to instantiate.
	Graph *Graph
	// Profile selects the controller implementation under test.
	Profile controller.Profile
	// Clock drives every component; defaults to the real clock.
	Clock clock.Clock
	// Transport supplies the control plane; defaults to a fresh buffered
	// MemTransport.
	Transport netem.Transport
	// Telemetry, when non-nil, receives fabric bring-up/convergence events
	// plus the per-component streams of every switch, the controller, and
	// the injector.
	Telemetry *telemetry.Telemetry
	// Attack, when non-nil, interposes the injector on every control
	// channel running this attack description. Nil connects switches to
	// the controller directly (baseline).
	Attack *lang.Attack
	// Attacker is the capability model for Attack; defaults to full
	// capabilities on every connection when Attack is set.
	Attacker *model.AttackerModel
	// Templates adds per-experiment injection templates (e.g. the
	// poisoned-LLDP PACKET_IN) to the injector's vocabulary.
	Templates map[string]func() openflow.Message
	// Detection, when non-nil (and Attack is set), observes every frame
	// the injector emits and is scored against ground truth; read the
	// confusion matrix from Fabric.Inj.DetectionScore().
	Detection inject.DetectionHook
	// LinkMode selects the data-plane realization (default LinkAuto).
	LinkMode LinkMode
	// ProbeInterval paces the controller's LLDP discovery rounds
	// (default 200ms). Every switch is probed once per interval.
	ProbeInterval time.Duration
	// ProcessingDelay overrides the profile's per-PACKET_IN compute time.
	ProcessingDelay time.Duration
	// EchoInterval overrides the switches' liveness probe period; larger
	// values cut idle control-plane chatter in big fabrics.
	EchoInterval time.Duration
	// StochasticSeed seeds the injector's probabilistic rules.
	StochasticSeed int64
	// Shards is the number of event loops the switches are hosted on
	// (switchsim.Host), and the injector core is given the same count:
	// 5,000 switches need Shards loops plus one reader per control channel.
	// Zero or less means one loop. Shard count is an execution knob only:
	// it never changes what a run observes.
	Shards int
	// WaveSize bounds how many control-channel handshakes are in flight
	// at once during bring-up (default 256).
	WaveSize int
}

// ControllerAddr is the fabric controller's control-plane address on
// in-memory transports.
const ControllerAddr = "fabric:c1"

// Fabric is a whole topology running in one process: N switchsim
// datapaths wired per the graph, one shared controller profile wrapped in
// LLDP discovery, and (optionally) the injector interposed on every
// control channel.
type Fabric struct {
	cfg   FabricConfig
	clk   clock.Clock
	tr    netem.Transport
	graph *Graph
	sys   *model.System

	Ctrl *controller.Controller
	Disc *Discovery
	Inj  *inject.Injector

	switches map[string]*switchsim.Switch
	links    []*netem.Link
	// flappers holds, per graph link, the two (switch, port) pairs to
	// toggle for scripted churn.
	flappers [][2]flapEnd

	// host runs every switch's control session on shared shard loops.
	host *switchsim.Host
	mode LinkMode

	bringupWaves   atomic.Uint64
	peakGoroutines atomic.Int64
	goroutineGauge *telemetry.Gauge

	errMu      sync.Mutex
	bringupErr error

	hostFrames atomic.Uint64
	started    bool
	stop       chan struct{}
	wg         sync.WaitGroup
}

type flapEnd struct {
	sw   *switchsim.Switch
	port uint16
}

// NewFabric validates the graph and wires every component. Call Start to
// bring the fabric up and Stop to tear it down.
func NewFabric(cfg FabricConfig) (*Fabric, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("topo: FabricConfig.Graph is required")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.New()
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.WaveSize <= 0 {
		cfg.WaveSize = 256
	}
	if cfg.Transport == nil {
		// Shard loops flush coalesced write batches; the buffered
		// transport decouples those bursts from reader pace where the
		// synchronous rendezvous transport would serialize them. Rings
		// grow on demand, so an idle channel holds no buffer; the limit
		// is below the 64KiB default because control frames are tiny,
		// and a reader that falls behind should push back on its writer
		// before 20,000 directions each hold 64KiB.
		cfg.Transport = netem.NewBufferedMemTransport(fabricRingSize)
	}
	if cfg.Profile == 0 {
		cfg.Profile = controller.ProfileFloodlight
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 200 * time.Millisecond
	}
	if cfg.ProcessingDelay <= 0 {
		switch cfg.Profile {
		case controller.ProfilePOX:
			cfg.ProcessingDelay = 3 * time.Millisecond
		case controller.ProfileRyu:
			cfg.ProcessingDelay = 2 * time.Millisecond
		default:
			cfg.ProcessingDelay = time.Millisecond
		}
	}
	mode := cfg.LinkMode
	if mode == LinkAuto {
		if len(cfg.Graph.Switches) >= DirectThreshold {
			mode = LinkDirect
		} else {
			mode = LinkNetem
		}
	}

	f := &Fabric{
		cfg:      cfg,
		clk:      cfg.Clock,
		tr:       cfg.Transport,
		graph:    cfg.Graph,
		sys:      cfg.Graph.System(),
		switches: make(map[string]*switchsim.Switch, len(cfg.Graph.Switches)),
		mode:     mode,
		stop:     make(chan struct{}),
	}
	f.sys.Controllers[0].ListenAddr = ControllerAddr
	f.goroutineGauge = cfg.Telemetry.Gauge("fabric.goroutines.peak")

	f.Disc = NewDiscovery(controller.NewLearningSwitch(cfg.Profile), cfg.Telemetry)
	f.Ctrl = controller.New(controller.Config{
		Name:            "c1",
		ListenAddr:      ControllerAddr,
		Transport:       f.tr,
		App:             f.Disc,
		ProcessingDelay: cfg.ProcessingDelay,
		SingleThreaded:  cfg.Profile == controller.ProfilePOX,
		Telemetry:       cfg.Telemetry,
	}, f.clk)

	// Control path: through the injector when an attack is configured,
	// straight to the controller otherwise.
	ctrlAddrFor := func(conn model.Conn) string { return ControllerAddr }
	if cfg.Attack != nil {
		attacker := cfg.Attacker
		if attacker == nil {
			attacker = FullAttackerModel(f.sys)
		}
		inj, err := inject.New(inject.Config{
			System:         f.sys,
			Attacker:       attacker,
			Attack:         cfg.Attack,
			Transport:      f.tr,
			Clock:          f.clk,
			StochasticSeed: cfg.StochasticSeed,
			Telemetry:      cfg.Telemetry,
			Templates:      cfg.Templates,
			LeanLog:        true,
			Detection:      cfg.Detection,
			Shards:         cfg.Shards,
		})
		if err != nil {
			return nil, err
		}
		f.Inj = inj
		ctrlAddrFor = inj.ProxyAddrFor
	}

	f.host = switchsim.NewHost(switchsim.HostConfig{
		Shards:    cfg.Shards,
		Seed:      cfg.StochasticSeed,
		Clock:     f.clk,
		Telemetry: cfg.Telemetry,
	})
	for _, sw := range f.graph.Switches {
		conn := model.Conn{Controller: "c1", Switch: model.NodeID(sw.Name)}
		f.switches[sw.Name] = switchsim.New(switchsim.Config{
			Name:           sw.Name,
			DPID:           sw.DPID,
			ControllerAddr: ctrlAddrFor(conn),
			Transport:      f.tr,
			EchoInterval:   cfg.EchoInterval,
			Telemetry:      cfg.Telemetry,
			OnConnError:    f.noteBringupErr,
		}, f.clk)
	}

	// Data plane: switch-to-switch links per the graph, host ports
	// terminated in a frame counter.
	for i, l := range f.graph.Links {
		swA, swB := f.switches[l.A.Switch], f.switches[l.B.Switch]
		name := fmt.Sprintf("%s:%d-%s:%d", l.A.Switch, l.A.Port, l.B.Switch, l.B.Port)
		switch mode {
		case LinkDirect:
			// Synchronous delivery through late-bound closures: both input
			// functions exist only after both AttachPort calls, and frames
			// flow only after Start, so the assignments are safely ordered.
			var inA, inB func([]byte)
			inA = swA.AttachPort(l.A.Port, name, func(frame []byte) {
				if inB != nil {
					inB(append([]byte(nil), frame...))
				}
			})
			inB = swB.AttachPort(l.B.Port, name, func(frame []byte) {
				if inA != nil {
					inA(append([]byte(nil), frame...))
				}
			})
		default:
			nl := netem.NewLink(f.clk, l.Profile.NetemConfig(f.graph.Seed+int64(i)))
			f.links = append(f.links, nl)
			a, b := nl.A(), nl.B()
			inA := swA.AttachPort(l.A.Port, name, a.Send)
			inB := swB.AttachPort(l.B.Port, name, b.Send)
			a.SetReceiver(inA)
			b.SetReceiver(inB)
		}
		f.flappers = append(f.flappers, [2]flapEnd{
			{sw: swA, port: l.A.Port},
			{sw: swB, port: l.B.Port},
		})
	}
	for _, h := range f.graph.Hosts {
		sw := f.switches[h.Switch]
		sw.AttachPort(h.Port, h.Name, func([]byte) { f.hostFrames.Add(1) })
	}
	return f, nil
}

// Graph returns the topology being run.
func (f *Fabric) Graph() *Graph { return f.graph }

// System returns the derived core system model.
func (f *Fabric) System() *model.System { return f.sys }

// Switch returns a datapath by graph name.
func (f *Fabric) Switch(name string) *switchsim.Switch { return f.switches[name] }

// HostFrames returns the number of data-plane frames delivered to host
// attachment points.
func (f *Fabric) HostFrames() uint64 { return f.hostFrames.Load() }

// Start brings the fabric up: controller, injector (if any), every
// switch, and the LLDP probe loop. Equivalent to StartContext with a
// background context.
func (f *Fabric) Start() error { return f.StartContext(context.Background()) }

// StartContext brings the fabric up. Switch admission runs in bounded
// waves in the background; cancelling ctx abandons the waves not yet
// started — already-admitted switches keep running until Stop.
func (f *Fabric) StartContext(ctx context.Context) error {
	if err := f.Ctrl.Start(); err != nil {
		return fmt.Errorf("topo: start controller: %w", err)
	}
	if f.Inj != nil {
		if err := f.Inj.Start(); err != nil {
			f.Ctrl.Stop()
			return fmt.Errorf("topo: start injector: %w", err)
		}
	}
	f.host.Start()
	f.started = true
	f.wg.Add(3)
	go f.admitAll(ctx)
	go f.discoveryDrain()
	go f.probeLoop()
	return nil
}

// Stop tears the fabric down in reverse order and waits for the probe
// loop to exit. Safe to call once.
func (f *Fabric) Stop() {
	close(f.stop)
	f.wg.Wait()
	f.host.Stop()
	if f.Inj != nil {
		f.Inj.Stop()
	}
	f.Ctrl.Stop()
	for _, l := range f.links {
		l.Close()
	}
}

// admitAll hands every switch to the shard host in bounded waves of
// WaveSize concurrent handshakes. Unbounded admission at 5,000 switches
// means 5,000 simultaneous dials and handshake buffers; waves cap the
// transient goroutine and memory spike without serializing bring-up.
func (f *Fabric) admitAll(ctx context.Context) {
	defer f.wg.Done()
	waves := f.cfg.Telemetry.Counter("fabric.bringup.waves")
	admitted := f.cfg.Telemetry.Counter("fabric.bringup.admitted")
	failures := f.cfg.Telemetry.Counter("fabric.bringup.failures")
	sws := f.graph.Switches
	for start := 0; start < len(sws); start += f.cfg.WaveSize {
		select {
		case <-ctx.Done():
			return
		case <-f.stop:
			return
		default:
		}
		end := start + f.cfg.WaveSize
		if end > len(sws) {
			end = len(sws)
		}
		var wg sync.WaitGroup
		for _, gsw := range sws[start:end] {
			sw := f.switches[gsw.Name]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := f.host.Admit(sw); err != nil {
					failures.Inc()
					f.noteBringupErr(err)
					// Transient failures retry on the host's reconnect
					// path; fd exhaustion is terminal and fails
					// WaitConnected fast instead.
					if !netem.IsFDExhausted(err) {
						f.host.RetryLater(sw)
					}
				} else {
					admitted.Inc()
				}
			}()
		}
		wg.Wait()
		waves.Inc()
		f.bringupWaves.Add(1)
		f.sampleGoroutines()
	}
}

// discoveryDrain applies batched LLDP observations: one clock read and
// one Discovery lock round per drained batch, however many probes the
// controller dispatched meanwhile.
func (f *Fabric) discoveryDrain() {
	defer f.wg.Done()
	for {
		batch := f.Disc.intake.Drain(f.stop)
		if batch == nil {
			return
		}
		f.Disc.absorb(batch, f.clk.Now())
	}
}

// noteBringupErr records the first bring-up error for WaitConnected to
// surface; fd exhaustion overwrites earlier transient errors because it
// is terminal and has a specific remedy.
func (f *Fabric) noteBringupErr(err error) {
	f.errMu.Lock()
	if f.bringupErr == nil || (netem.IsFDExhausted(err) && !netem.IsFDExhausted(f.bringupErr)) {
		f.bringupErr = err
	}
	f.errMu.Unlock()
}

func (f *Fabric) loadBringupErr() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.bringupErr
}

// sampleGoroutines tracks the peak goroutine count, the headline resource
// metric of shard hosting.
func (f *Fabric) sampleGoroutines() {
	n := int64(runtime.NumGoroutine())
	for {
		cur := f.peakGoroutines.Load()
		if n <= cur {
			return
		}
		if f.peakGoroutines.CompareAndSwap(cur, n) {
			f.goroutineGauge.Set(n)
			return
		}
	}
}

// BringupWaves returns how many admission waves have completed.
func (f *Fabric) BringupWaves() uint64 { return f.bringupWaves.Load() }

// PeakGoroutines returns the highest goroutine count sampled during
// bring-up and probing.
func (f *Fabric) PeakGoroutines() int64 { return f.peakGoroutines.Load() }

// DataPlaneMode returns the resolved link realization (LinkNetem or
// LinkDirect — never LinkAuto).
func (f *Fabric) DataPlaneMode() LinkMode { return f.mode }

// WaitConnected blocks until every switch completes its control-channel
// handshake, returning the virtual-clock duration it took. The timeout is
// wall time.
func (f *Fabric) WaitConnected(timeout time.Duration) (time.Duration, error) {
	start := f.clk.Now()
	deadline := time.Now().Add(timeout)
	for {
		if f.Ctrl.SwitchCount() == len(f.switches) {
			d := f.clk.Now().Sub(start)
			f.cfg.Telemetry.Emit(telemetry.Event{
				Layer: telemetry.LayerFabric, Kind: telemetry.KindConverge,
				Node: "c1", Detail: fmt.Sprintf("connected %d switches in %s", len(f.switches), d),
			})
			return d, nil
		}
		if err := f.loadBringupErr(); netem.IsFDExhausted(err) {
			return 0, fmt.Errorf("topo: bring-up out of file descriptors with %d/%d switches connected "+
				"(raise ulimit -n or use the in-memory transport): %w",
				f.Ctrl.SwitchCount(), len(f.switches), err)
		}
		if time.Now().After(deadline) {
			if err := f.loadBringupErr(); err != nil {
				return 0, fmt.Errorf("topo: %d/%d switches connected after %s (last bring-up error: %w)",
					f.Ctrl.SwitchCount(), len(f.switches), timeout, err)
			}
			return 0, fmt.Errorf("topo: %d/%d switches connected after %s",
				f.Ctrl.SwitchCount(), len(f.switches), timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// WaitDiscovery blocks until the controller has learned at least target
// directed adjacencies (2 per graph link for full convergence), returning
// the virtual-clock duration and whether the target was reached before
// the wall-time timeout.
func (f *Fabric) WaitDiscovery(target int, timeout time.Duration) (time.Duration, bool) {
	start := f.clk.Now()
	deadline := time.Now().Add(timeout)
	for {
		if f.Disc.LinkCount() >= target {
			d := f.clk.Now().Sub(start)
			f.cfg.Telemetry.Emit(telemetry.Event{
				Layer: telemetry.LayerFabric, Kind: telemetry.KindConverge,
				Node: "c1", Detail: fmt.Sprintf("discovered %d adjacencies in %s", f.Disc.LinkCount(), d),
			})
			return d, true
		}
		if time.Now().After(deadline) {
			return f.clk.Now().Sub(start), false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// FlapStorm runs a scripted link-flap storm: rounds passes over count
// seeded-random links, taking each down and back up with interval between
// transitions. Every transition emits a PORT_STATUS from both endpoint
// switches. Returns the number of down/up flaps applied.
func (f *Fabric) FlapStorm(seed int64, count, rounds int, interval time.Duration) int {
	if count > len(f.flappers) {
		count = len(f.flappers)
	}
	if count == 0 || rounds == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed ^ 0x666c6170))
	idx := rng.Perm(len(f.flappers))[:count]
	flaps := 0
	for r := 0; r < rounds; r++ {
		for _, down := range []bool{true, false} {
			for _, i := range idx {
				for _, end := range f.flappers[i] {
					end.sw.SetLinkDown(end.port, down)
				}
				if down {
					flaps++
					f.cfg.Telemetry.Emit(telemetry.Event{
						Layer: telemetry.LayerFabric, Kind: telemetry.KindLink,
						Detail: fmt.Sprintf("flap link %d round %d", i, r),
					})
				}
			}
			select {
			case <-f.stop:
				return flaps
			case <-f.clk.After(interval):
			}
		}
	}
	return flaps
}

// probeLoop originates LLDP discovery on the fabric's probe wheel: each
// connected switch is probed (one PACKET_OUT per physical port, the
// pattern of real controllers' topology modules) once per ProbeInterval,
// in the wheel slot its DPID hashes to — batched pacing instead of a
// whole-fabric burst, on one timer for the entire fabric.
func (f *Fabric) probeLoop() {
	defer f.wg.Done()
	// Each round is spread across one wheel slot per 32 switches (1..16),
	// evenly paced per-slot batches instead of a whole-fabric burst.
	nslots := min(max((len(f.cfg.Graph.Switches)+31)/32, 1), 16)
	slots := uint64(nslots)
	rounds := f.cfg.Telemetry.Counter("fabric.probe.slots")
	frames := f.cfg.Telemetry.Counter("fabric.probe.frames")
	batchHist := f.cfg.Telemetry.Histogram("fabric.probe.batch")
	// Reused across rounds: the switch listing and the per-switch probe
	// batch. At 5,000 switches re-allocating either every 200ms slot is
	// measurable garbage.
	var conns []*controller.SwitchConn
	var batch []openflow.Message
	wheel := NewProbeWheel(f.clk, f.cfg.ProbeInterval, nslots, func(slot int) {
		rounds.Inc()
		conns = f.Ctrl.SwitchesInto(conns)
		var slotFrames uint64
		for _, sw := range conns {
			dpid := sw.DPID()
			if dpid%slots != uint64(slot) {
				continue
			}
			n, b := f.probeSwitch(dpid, sw, batch)
			batch = b
			slotFrames += n
		}
		frames.Add(slotFrames)
		batchHist.Observe(int64(slotFrames))
		f.sampleGoroutines()
	})
	wheel.Run(f.stop)
}

// probeSwitch emits one LLDP PACKET_OUT per physical port of sw as a
// single batched write on the control channel — one marshal buffer, one
// lock round, one transport write per switch per round instead of one
// of each per port. Returns the probe count and the (recycled) batch
// slice.
func (f *Fabric) probeSwitch(dpid uint64, sw *controller.SwitchConn, batch []openflow.Message) (uint64, []openflow.Message) {
	batch = batch[:0]
	for _, p := range sw.Ports() {
		if p.PortNo >= openflow.PortMax {
			continue
		}
		batch = append(batch, &openflow.PacketOut{
			BufferID: openflow.NoBuffer,
			InPort:   openflow.PortNone,
			Actions:  []openflow.Action{openflow.ActionOutput{Port: p.PortNo, MaxLen: 0xffff}},
			Data:     MarshalLLDP(dpid, p.PortNo, p.HWAddr),
		})
	}
	if len(batch) == 0 {
		return 0, batch
	}
	_ = sw.SendBatch(batch)
	return uint64(len(batch)), batch
}

// FullAttackerModel grants every capability on every control-plane
// connection — the fabric default, where the attacker owns the injection
// point outright.
func FullAttackerModel(sys *model.System) *model.AttackerModel {
	am := model.NewAttackerModel()
	for _, conn := range sys.ControlPlane {
		am.Grant(conn, model.AllCapabilities)
	}
	return am
}
