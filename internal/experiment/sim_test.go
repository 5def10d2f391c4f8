//go:build goexperiment.synctest

package experiment

import (
	"slices"
	"testing"
	"time"

	"attain/internal/controller"
	"attain/internal/monitor"
	"attain/internal/simlane"
	"attain/internal/switchsim"
)

// The virtual-time lane (make sim) replays §VII's experiments at TimeScale
// 1 inside a simlane bubble, where every wait is virtual. Baseline rows
// repeat to the nanosecond and are asserted exactly (POX's first probe
// takes one of two values, see TestSimFigure11Baseline); attacked rows
// depend on the order the Go scheduler wakes goroutines at one instant
// (about 2 % run to run), so only their shape is asserted.

// Baseline rows every profile shares: the RTT of every probe after the
// first and the throughput of every iperf trial.
const (
	simLaterProbe = 8033920 * time.Nanosecond
	simIperfMbps  = 21.10976
)

func simSuppression(t *testing.T, profile controller.Profile, attacked bool) *SuppressionResult {
	t.Helper()
	var res *SuppressionResult
	var err error
	simlane.Run(func() {
		cfg := suppressionTestConfig(profile, attacked)
		cfg.TimeScale = 1
		res, err = RunSuppression(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimFigure11Baseline(t *testing.T) {
	// The first probe also pays for the controller installing the path,
	// which differs by profile; every later probe rides installed flows
	// over the same four links. POX has two first-probe values, 55.0608 ms
	// in most runs and 53.05408 ms in the rest: it handles one PACKET_IN
	// at a time, so the order of events that meet at one virtual instant,
	// which is the Go scheduler's, can save the probe one 2 ms processing
	// delay and one frame's 6.72 µs serialization.
	firstProbe := map[controller.Profile][]time.Duration{
		controller.ProfileFloodlight: {28060800 * time.Nanosecond},
		controller.ProfilePOX:        {55060800 * time.Nanosecond, 53054080 * time.Nanosecond},
		controller.ProfileRyu:        {34060800 * time.Nanosecond},
	}
	for _, profile := range []controller.Profile{controller.ProfileFloodlight, controller.ProfilePOX, controller.ProfileRyu} {
		t.Run(profile.String(), func(t *testing.T) {
			res := simSuppression(t, profile, false)
			rtts := res.Ping.RTTs()
			if len(rtts) != res.Ping.Sent() || len(rtts) == 0 {
				t.Fatalf("%d of %d probes answered", len(rtts), res.Ping.Sent())
			}
			if !slices.Contains(firstProbe[profile], rtts[0]) {
				t.Errorf("first probe %v, want one of %v", rtts[0], firstProbe[profile])
			}
			for i, rtt := range rtts[1:] {
				if rtt != simLaterProbe {
					t.Errorf("probe %d: %v, want %v", i+1, rtt, simLaterProbe)
				}
			}
			for i, mbps := range res.Iperf.Throughputs() {
				if mbps != simIperfMbps {
					t.Errorf("iperf trial %d: %v Mbps, want %v", i, mbps, simIperfMbps)
				}
			}
		})
	}
}

func TestSimFigure11Attack(t *testing.T) {
	for _, profile := range []controller.Profile{controller.ProfileFloodlight, controller.ProfileRyu} {
		t.Run(profile.String(), func(t *testing.T) {
			attacked := simSuppression(t, profile, true)
			if attacked.DoS() || attacked.Ping.Received() == 0 {
				t.Fatalf("suppression is a full DoS on %s; want degradation", profile)
			}
			if tput := monitor.Summarize(attacked.Iperf.Throughputs()).Mean; tput <= 0 || tput > simIperfMbps/2 {
				t.Errorf("throughput %.3f Mbps under attack vs %v baseline, want degraded but nonzero", tput, simIperfMbps)
			}
			for i, rtt := range attacked.Ping.RTTs()[1:] {
				if rtt <= simLaterProbe {
					t.Errorf("probe %d: %v under attack, want above the %v baseline", i+1, rtt, simLaterProbe)
				}
			}
			if attacked.FlowModsDropped == 0 {
				t.Error("no flow mods dropped")
			}
		})
	}
	t.Run(controller.ProfilePOX.String(), func(t *testing.T) {
		if attacked := simSuppression(t, controller.ProfilePOX, true); !attacked.DoS() {
			t.Errorf("POX under suppression: %d/%d probes answered, iperf %v; want the DoS asterisk",
				attacked.Ping.Received(), attacked.Ping.Sent(), attacked.Iperf.Throughputs())
		}
	})
}

func TestSimTableII(t *testing.T) {
	for _, profile := range []controller.Profile{controller.ProfileFloodlight, controller.ProfilePOX, controller.ProfileRyu} {
		for _, mode := range []switchsim.FailMode{switchsim.FailSafe, switchsim.FailSecure} {
			t.Run(profile.String()+"-"+mode.String(), func(t *testing.T) {
				var res *InterruptionResult
				var err error
				simlane.Run(func() {
					cfg := interruptionTestConfig(profile, mode)
					cfg.TimeScale = 1
					res, err = RunInterruption(cfg)
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.ExtToExtBefore || !res.IntToExtBefore {
					t.Errorf("pre-attack access broken: ext->ext %v, int->ext %v", res.ExtToExtBefore, res.IntToExtBefore)
				}
				if profile == controller.ProfileRyu {
					// Ryu's FLOW_MODs carry no nw_src, so φ2 never fires.
					if res.FinalState != "sigma2" || res.S2Disconnected || !res.ExtToInt || !res.IntToExtAfter {
						t.Errorf("ryu: state %s, s2 disconnected %v, ext->int %v, int->ext after %v; want sigma2, connected, normal access",
							res.FinalState, res.S2Disconnected, res.ExtToInt, res.IntToExtAfter)
					}
					return
				}
				if res.FinalState != "sigma3" || !res.S2Disconnected {
					t.Errorf("state %s, s2 disconnected %v; want sigma3 and disconnected", res.FinalState, res.S2Disconnected)
				}
				failSafe := mode == switchsim.FailSafe
				if res.ExtToInt != failSafe || res.IntToExtAfter != failSafe {
					t.Errorf("ext->int %v, int->ext after %v; want both %v in %s mode",
						res.ExtToInt, res.IntToExtAfter, failSafe, mode)
				}
			})
		}
	}
}
