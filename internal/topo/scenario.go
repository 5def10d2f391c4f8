package topo

import (
	"fmt"
	"time"

	"attain/internal/clock"
	"attain/internal/controller"
	"attain/internal/core/inject"
	"attain/internal/core/lang"
	"attain/internal/openflow"
	"attain/internal/telemetry"
)

// finishInjectorObservations copies the injector's view of the run into
// the result: fabricated-frame counts and, when a detector was attached,
// its confusion matrix.
func finishInjectorObservations(f *Fabric, detector inject.DetectionHook, res *FabricResult) {
	if f.Inj == nil {
		return
	}
	res.InjectedFrames = f.Inj.Log().TotalStats().Injected
	if detector != nil {
		score := f.Inj.DetectionScore()
		res.Detection = &score
	}
}

// ScenarioConfig describes one fabric-scale experiment: a topology, a
// controller profile, and a topology-level attack, plus timing knobs.
// The campaign's fabric kind runs through it.
type ScenarioConfig struct {
	// Topology is a generator descriptor, e.g. "leafspine:4x12x2".
	Topology string
	// Profile selects the controller under test.
	Profile controller.Profile
	// Attack names the topology-level attack (see FabricAttackNames);
	// empty means AttackBaseline.
	Attack string
	// Seed drives topology generation and every stochastic choice.
	Seed int64
	// TimeScale speeds the scenario's virtual clock (0/1 = real time).
	TimeScale int
	// Observe is the wall-time window the attack (or baseline) is given
	// to show effects after discovery converges (default 3s).
	Observe time.Duration
	// ConnectTimeout / DiscoverTimeout bound convergence in wall time
	// (default 30s each).
	ConnectTimeout  time.Duration
	DiscoverTimeout time.Duration
	// ProbeInterval / EchoInterval tune discovery pacing and control
	// heartbeats (virtual time). Defaults: 200ms probes, 500ms echoes —
	// fast heartbeats double as the poison attack's injection trigger.
	ProbeInterval time.Duration
	EchoInterval  time.Duration
	// Telemetry, when non-nil, receives the full fabric event stream.
	Telemetry *telemetry.Telemetry

	// Program, when non-nil, interposes this compiled attack program on
	// every control channel instead of a named topology-level attack —
	// the scenario-synthesis path. Attack then only labels the run.
	Program *lang.Attack
	// ProgramTemplates adds injection templates for Program runs (the
	// synth vocabulary hands programs template names; this supplies their
	// constructors).
	ProgramTemplates map[string]func() openflow.Message
	// Detector observes every frame the injector emits and is scored into
	// FabricResult.Detection. Runs without an injector ignore it.
	// AttackPktInFlood defaults it to a PacketInRateDetector.
	Detector inject.DetectionHook
	// FloodBurst sets the PACKET_INs fabricated per heartbeat for
	// AttackPktInFlood (default DefaultFloodBurst).
	FloodBurst int
	// TolerateDisruption reports convergence failure as an observation
	// (Connected=false, Deviation=true) instead of an error. Generated
	// programs may legitimately flatline the control channel; a synth
	// campaign wants that recorded, not retried.
	TolerateDisruption bool
	// Shards is the number of event loops the switches (and the injector,
	// if any) run on; 0 means one.
	Shards int
	// WaveSize bounds concurrent handshakes during bring-up
	// (default 256).
	WaveSize int
}

// FabricResult is the outcome of one fabric scenario: topology shape,
// convergence latencies, the discovery audit, and attack-specific
// observations. Deviation is true when the attack produced a detectable
// divergence from ground truth at the controller.
type FabricResult struct {
	Topology string `json:"topology"`
	Profile  string `json:"profile"`
	Attack   string `json:"attack"`
	Switches int    `json:"switches"`
	Links    int    `json:"links"`
	Hosts    int    `json:"hosts"`

	// Connected reports full control-plane bring-up; ConnectMS is its
	// virtual-clock latency.
	Connected bool    `json:"connected"`
	ConnectMS float64 `json:"connect_ms"`
	// DiscoveryConverged reports that every graph link was learned in
	// both directions; DiscoverMS is the virtual-clock latency.
	DiscoveryConverged bool    `json:"discovery_converged"`
	DiscoverMS         float64 `json:"discover_ms"`

	// Audit of the controller's link table against ground truth.
	DiscoveredLinks int `json:"discovered_links"`
	PhantomLinks    int `json:"phantom_links"`
	MissingLinks    int `json:"missing_links"`

	// PortStatusEvents counts PORT_STATUS churn seen by the controller;
	// FlapsApplied counts scripted link-down transitions.
	PortStatusEvents uint64 `json:"port_status_events"`
	FlapsApplied     int    `json:"flaps_applied"`

	// Fingerprint carries the prober's feature vector for
	// AttackFingerprint runs.
	Fingerprint *FingerprintResult `json:"fingerprint,omitempty"`

	// InjectedFrames counts frames the injector fabricated onto the
	// control channel (zero for baseline runs).
	InjectedFrames uint64 `json:"injected_frames,omitempty"`
	// Detection is the detector's confusion matrix when a detection hook
	// observed the run.
	Detection *inject.DetectionScore `json:"detection,omitempty"`

	// Deviation is the scenario's headline verdict: did the attack
	// observably corrupt the controller's view (phantom links, untracked
	// churn, correct fingerprint extraction)?
	Deviation bool   `json:"deviation"`
	Detail    string `json:"detail,omitempty"`

	// BringupWaves and PeakGoroutines describe bring-up: admission waves
	// completed and the highest goroutine count sampled.
	BringupWaves   uint64 `json:"bringup_waves,omitempty"`
	PeakGoroutines int64  `json:"peak_goroutines,omitempty"`
}

// RunScenario generates the topology, brings the fabric up, waits for
// control-plane and discovery convergence, runs the configured attack's
// observation phase, and audits the controller's resulting view.
func RunScenario(cfg ScenarioConfig) (*FabricResult, error) {
	if cfg.Attack == "" {
		cfg.Attack = AttackBaseline
	}
	if cfg.Observe <= 0 {
		cfg.Observe = 3 * time.Second
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 30 * time.Second
	}
	if cfg.DiscoverTimeout <= 0 {
		cfg.DiscoverTimeout = 30 * time.Second
	}
	if cfg.EchoInterval <= 0 {
		cfg.EchoInterval = 500 * time.Millisecond
	}
	if cfg.Profile == 0 {
		cfg.Profile = controller.ProfileFloodlight
	}

	g, err := Parse(cfg.Topology, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var clk clock.Clock
	if cfg.TimeScale > 1 {
		clk = clock.NewScaled(cfg.TimeScale)
	} else {
		clk = clock.New()
	}

	fcfg := FabricConfig{
		Graph:          g,
		Profile:        cfg.Profile,
		Clock:          clk,
		Telemetry:      cfg.Telemetry,
		ProbeInterval:  cfg.ProbeInterval,
		EchoInterval:   cfg.EchoInterval,
		StochasticSeed: cfg.Seed,
		Shards:         cfg.Shards,
		WaveSize:       cfg.WaveSize,
	}
	if cfg.Program != nil {
		// Scenario synthesis: the caller compiled an attack program; the
		// Attack string only labels the run.
		fcfg.Attack = cfg.Program
		fcfg.Templates = cfg.ProgramTemplates
	} else {
		switch cfg.Attack {
		case AttackBaseline, AttackLinkFlap, AttackFingerprint:
			// No injector interposition.
		case AttackLLDPPoison:
			sys := g.System()
			fcfg.Attack = LLDPPoisonAttack(sys, nil)
			fcfg.Templates = PhantomTemplates(g)
		case AttackPktInFlood:
			sys := g.System()
			fcfg.Attack = PktInFloodAttack(sys, nil, cfg.FloodBurst)
			fcfg.Templates = FloodTemplates(g)
			if cfg.Detector == nil {
				// The flood family ships with its reference defense so
				// every run is scored.
				cfg.Detector = &inject.PacketInRateDetector{}
			}
		default:
			return nil, fmt.Errorf("topo: unknown fabric attack %q (want %v)", cfg.Attack, FabricAttackNames())
		}
	}
	if fcfg.Attack != nil {
		fcfg.Detection = cfg.Detector
	}

	f, err := NewFabric(fcfg)
	if err != nil {
		return nil, err
	}
	if err := f.Start(); err != nil {
		return nil, err
	}
	defer f.Stop()

	res := &FabricResult{
		Topology: g.Name,
		Profile:  cfg.Profile.String(),
		Attack:   cfg.Attack,
		Switches: len(g.Switches),
		Links:    len(g.Links),
		Hosts:    len(g.Hosts),
	}

	connectD, err := f.WaitConnected(cfg.ConnectTimeout)
	if err != nil {
		if !cfg.TolerateDisruption {
			return nil, err
		}
		// The interposed program broke control-plane bring-up — for a
		// synth campaign that is the most drastic deviation there is, so
		// record it as an observation rather than failing the scenario.
		res.Detail = "control plane never converged: " + err.Error()
		res.Deviation = f.Inj != nil
		finishInjectorObservations(f, cfg.Detector, res)
		res.BringupWaves = f.BringupWaves()
		res.PeakGoroutines = f.PeakGoroutines()
		return res, nil
	}
	res.Connected = true
	res.ConnectMS = float64(connectD) / float64(time.Millisecond)

	discoverD, ok := f.WaitDiscovery(2*len(g.Links), cfg.DiscoverTimeout)
	res.DiscoveryConverged = ok
	res.DiscoverMS = float64(discoverD) / float64(time.Millisecond)
	if !ok {
		res.Detail = fmt.Sprintf("discovery: %d/%d adjacencies before timeout", f.Disc.LinkCount(), 2*len(g.Links))
	}

	// Attack observation phase.
	switch cfg.Attack {
	case AttackLLDPPoison:
		// The injector fabricates one phantom LLDP PACKET_IN per switch
		// heartbeat; wait until the controller's table is poisoned.
		deadline := time.Now().Add(cfg.Observe)
		for {
			if _, phantom, _ := f.Disc.Audit(g); phantom > 0 {
				break
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	case AttackLinkFlap:
		// Half the links (at least one), three down/up rounds.
		count := len(g.Links) / 2
		if count < 1 {
			count = 1
		}
		res.FlapsApplied = f.FlapStorm(cfg.Seed, count, 3, 50*time.Millisecond)
		// Let the last PORT_STATUS wave reach the controller.
		deadline := time.Now().Add(cfg.Observe)
		for f.Disc.PortStatusEvents() < 2*uint64(res.FlapsApplied) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	case AttackFingerprint:
		fp, err := Fingerprint(FingerprintConfig{
			Addr:      ControllerAddr,
			Transport: f.tr,
			Clock:     clk,
			Burst:     4,
		})
		if err != nil {
			res.Detail = "fingerprint: " + err.Error()
		} else {
			res.Fingerprint = fp
		}
	case AttackPktInFlood:
		// Wait until at least one full burst of fabricated PACKET_INs has
		// been emitted and scored by the detection hook.
		burst := cfg.FloodBurst
		if burst <= 0 {
			burst = DefaultFloodBurst
		}
		deadline := time.Now().Add(cfg.Observe)
		for {
			if f.Inj != nil {
				if s := f.Inj.DetectionScore(); s.TP+s.FN >= uint64(burst) {
					break
				}
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	default:
		time.Sleep(cfg.Observe / 3)
	}

	res.DiscoveredLinks, res.PhantomLinks, res.MissingLinks = f.Disc.Audit(g)
	res.PortStatusEvents = f.Disc.PortStatusEvents()
	finishInjectorObservations(f, cfg.Detector, res)
	res.BringupWaves = f.BringupWaves()
	res.PeakGoroutines = f.PeakGoroutines()

	if cfg.Program != nil {
		// A generated program deviates when the injector observably
		// interfered with the control channel (or corrupted discovery).
		stats := f.Inj.Log().TotalStats()
		interference := stats.Dropped + stats.Duplicated + stats.Delayed +
			stats.Modified + stats.Fuzzed + stats.Injected
		res.Deviation = interference > 0 || res.PhantomLinks > 0
		if res.Deviation {
			res.Detail = fmt.Sprintf(
				"program interfered with %d frames (drop %d dup %d delay %d modify %d fuzz %d inject %d), %d phantom links",
				interference, stats.Dropped, stats.Duplicated, stats.Delayed,
				stats.Modified, stats.Fuzzed, stats.Injected, res.PhantomLinks)
		}
		return res, nil
	}

	switch cfg.Attack {
	case AttackLLDPPoison:
		res.Deviation = res.PhantomLinks > 0
		if res.Deviation {
			res.Detail = fmt.Sprintf("controller learned %d phantom links", res.PhantomLinks)
		}
	case AttackLinkFlap:
		res.Deviation = res.PortStatusEvents > 0 && res.FlapsApplied > 0
		if res.Deviation {
			res.Detail = fmt.Sprintf("%d flaps produced %d PORT_STATUS events", res.FlapsApplied, res.PortStatusEvents)
		}
	case AttackFingerprint:
		res.Deviation = res.Fingerprint != nil && res.Fingerprint.Guess == res.Profile
		if res.Deviation {
			res.Detail = fmt.Sprintf("fingerprinted %s (median %.2fms, burst %.2f)",
				res.Fingerprint.Guess, res.Fingerprint.MedianMS, res.Fingerprint.BurstFactor)
		}
	case AttackPktInFlood:
		res.Deviation = res.InjectedFrames > 0
		if res.Deviation {
			detail := fmt.Sprintf("%d fabricated PACKET_INs delivered", res.InjectedFrames)
			if res.Detection != nil {
				detail += fmt.Sprintf(" (detector precision %.2f recall %.2f)",
					res.Detection.Precision(), res.Detection.Recall())
			}
			res.Detail = detail
		}
	default:
		res.Deviation = res.PhantomLinks > 0 || (res.DiscoveryConverged && res.MissingLinks > 0)
	}
	return res, nil
}
