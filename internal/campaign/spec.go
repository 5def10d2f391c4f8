package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"attain/internal/controller"
	"attain/internal/switchsim"
	"attain/internal/topo"
)

// Spec is the JSON campaign description accepted by `attain campaign`,
// `attain grid` and `attain serve`.
// Axes left empty take the Matrix defaults; durations are strings in Go
// syntax ("90s", "2m30s").
//
//	{
//	  "name": "paper-eval",
//	  "kinds": ["suppression", "interruption"],
//	  "profiles": ["floodlight", "pox", "ryu"],
//	  "attacks": ["baseline", "suppression", "delay", "fuzz"],
//	  "fail_modes": ["safe", "secure"],
//	  "time_scale": 40,
//	  "trials": 1,
//	  "seed": 1,
//	  "workers": 4,
//	  "timeout": "2m",
//	  "retries": 1,
//	  "backoff": "500ms"
//	}
type Spec struct {
	Name      string   `json:"name"`
	Kinds     []string `json:"kinds,omitempty"`
	Profiles  []string `json:"profiles,omitempty"`
	Attacks   []string `json:"attacks,omitempty"`
	FailModes []string `json:"fail_modes,omitempty"`
	// Topologies and FabricAttacks are the fabric-kind axes: generator
	// descriptors ("leafspine:4x12x2", "fattree:8", ...) crossed with
	// topology-level attacks (baseline, lldp-poison, link-flap,
	// fingerprint).
	Topologies    []string `json:"topologies,omitempty"`
	FabricAttacks []string `json:"fabric_attacks,omitempty"`
	// FabricShards and FabricWave configure execution for fabric- and
	// synth-kind scenarios: FabricShards is how many event loops the
	// switches and the injector run on (0 = one loop), FabricWave bounds
	// concurrent handshakes during bring-up. Execution knobs only — they
	// never change scenario names, seeds, or audit outcomes.
	FabricShards int `json:"fabric_shards,omitempty"`
	FabricWave   int `json:"fabric_wave,omitempty"`
	// SynthCount and SynthSeed parameterize the synth kind: SynthCount
	// generated programs per (profile, topology) cell, all derived from
	// the base SynthSeed so any worker regenerates identical programs.
	SynthCount int   `json:"synth_count,omitempty"`
	SynthSeed  int64 `json:"synth_seed,omitempty"`
	TimeScale  int   `json:"time_scale,omitempty"`
	Trials     int   `json:"trials,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	// Full selects the paper's full trial counts (60 ping / 30 iperf).
	Full bool `json:"full,omitempty"`
	// Trace enables per-scenario telemetry traces, written by the Store
	// under traces/.
	Trace bool `json:"trace,omitempty"`

	Workers int      `json:"workers,omitempty"`
	Timeout Duration `json:"timeout,omitempty"`
	Retries int      `json:"retries,omitempty"`
	Backoff Duration `json:"backoff,omitempty"`
}

// Duration is a time.Duration that unmarshals from "90s"-style JSON
// strings (or raw nanosecond numbers).
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("campaign: duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// LoadSpec reads and parses a spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// ParseSpec parses a spec, rejecting unknown fields so typos fail loudly.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("campaign: parse spec: %w", err)
	}
	return &spec, nil
}

// Matrix resolves the spec's axes into an expandable Matrix.
func (s *Spec) Matrix() (Matrix, error) {
	m := Matrix{
		FabricShards: s.FabricShards,
		FabricWave:   s.FabricWave,
		SynthCount:   s.SynthCount,
		SynthSeed:    s.SynthSeed,
		TimeScale:    s.TimeScale,
		Trials:       s.Trials,
		Seed:         s.Seed,
		Workload:     Workload{Full: s.Full},
		Trace:        s.Trace,
	}
	if s.FabricShards < 0 {
		return Matrix{}, fmt.Errorf("campaign: fabric_shards must be >= 0, got %d", s.FabricShards)
	}
	if s.FabricWave < 0 {
		return Matrix{}, fmt.Errorf("campaign: fabric_wave must be >= 0, got %d", s.FabricWave)
	}
	if s.SynthCount < 0 {
		return Matrix{}, fmt.Errorf("campaign: synth_count must be >= 0, got %d", s.SynthCount)
	}
	for _, name := range s.Kinds {
		kind, err := ParseKind(name)
		if err != nil {
			return Matrix{}, err
		}
		m.Kinds = append(m.Kinds, kind)
	}
	for _, name := range s.Profiles {
		p, err := ParseProfile(name)
		if err != nil {
			return Matrix{}, err
		}
		m.Profiles = append(m.Profiles, p)
	}
	for _, name := range s.Attacks {
		switch name {
		case AttackBaseline, AttackSuppression, AttackDelay, AttackFuzz:
		default:
			return Matrix{}, fmt.Errorf("campaign: unknown attack %q", name)
		}
		m.Attacks = append(m.Attacks, name)
	}
	for _, name := range s.FailModes {
		mode, err := ParseFailMode(name)
		if err != nil {
			return Matrix{}, err
		}
		m.FailModes = append(m.FailModes, mode)
	}
	for _, desc := range s.Topologies {
		// Validate eagerly with the campaign seed so typos fail at spec
		// load, not mid-campaign (descriptor grammar errors are
		// seed-independent).
		if _, err := topo.Parse(desc, s.Seed); err != nil {
			return Matrix{}, err
		}
		m.Topologies = append(m.Topologies, desc)
	}
	for _, name := range s.FabricAttacks {
		ok := false
		for _, known := range topo.FabricAttackNames() {
			if name == known {
				ok = true
				break
			}
		}
		if !ok {
			return Matrix{}, fmt.Errorf("campaign: unknown fabric attack %q (want %v)",
				name, topo.FabricAttackNames())
		}
		m.FabricAttacks = append(m.FabricAttacks, name)
	}
	return m, nil
}

// RunnerConfig resolves the spec's execution knobs.
func (s *Spec) RunnerConfig() RunnerConfig {
	return RunnerConfig{
		Workers: s.Workers,
		Timeout: time.Duration(s.Timeout),
		Retries: s.Retries,
		Backoff: time.Duration(s.Backoff),
	}
}

// ParseKind resolves a spec kind name.
func ParseKind(name string) (Kind, error) {
	switch Kind(name) {
	case KindSuppression, KindInterruption, KindFabric, KindSynth:
		return Kind(name), nil
	default:
		return "", fmt.Errorf("campaign: unknown kind %q (want suppression, interruption, fabric, or synth)", name)
	}
}

// ParseProfile resolves a controller profile name.
func ParseProfile(name string) (controller.Profile, error) {
	for _, p := range []controller.Profile{
		controller.ProfileFloodlight,
		controller.ProfilePOX,
		controller.ProfileRyu,
	} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("campaign: unknown profile %q (want floodlight, pox, or ryu)", name)
}

// ParseFailMode resolves a switch fail mode name ("safe"/"fail-safe",
// "secure"/"fail-secure").
func ParseFailMode(name string) (switchsim.FailMode, error) {
	switch name {
	case "safe", "fail-safe":
		return switchsim.FailSafe, nil
	case "secure", "fail-secure":
		return switchsim.FailSecure, nil
	default:
		return 0, fmt.Errorf("campaign: unknown fail mode %q (want safe or secure)", name)
	}
}
