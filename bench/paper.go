package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"attain/internal/campaign"
	"attain/internal/controller"
	"attain/internal/experiment"
	"attain/internal/switchsim"
)

// paperConfig is the paper-evaluation workload's frozen shape: the spec is
// examples/campaign/paper-eval.json, kept here so the benchmark reads no
// file outside its own directory. Only the seed varies.
type paperConfig struct {
	name string
	spec string // %d takes the seed
}

var paperEval = paperConfig{name: "paper_eval", spec: `{
  "name": "paper-eval",
  "kinds": ["suppression", "interruption"],
  "profiles": ["floodlight", "pox", "ryu"],
  "attacks": ["baseline", "suppression"],
  "fail_modes": ["safe", "secure"],
  "time_scale": 20,
  "trials": 1,
  "seed": %d,
  "workers": 4,
  "timeout": "5m",
  "retries": 1,
  "backoff": "500ms"
}`}

// tableII is the paper's Table II as this reproduction pins it
// (internal/experiment's TestInterruptionTableII): fail-safe grants the
// external host access to the intranet, fail-secure denies legitimate
// traffic, and Ryu, whose FLOW_MODs carry no nw_src, never triggers.
var tableII = map[controller.Profile]map[switchsim.FailMode]struct{ extToInt, intToExtAfter, sigma3 bool }{
	controller.ProfileFloodlight: {switchsim.FailSafe: {true, true, true}, switchsim.FailSecure: {false, false, true}},
	controller.ProfilePOX:        {switchsim.FailSafe: {true, true, true}, switchsim.FailSecure: {false, false, true}},
	controller.ProfileRyu:        {switchsim.FailSafe: {true, true, false}, switchsim.FailSecure: {true, true, false}},
}

// paperPlan parses the spec and expands its matrix, the work a campaign
// CLI does before the first scenario runs.
func paperPlan(c paperConfig, seed int64) (*campaign.Spec, []campaign.Scenario, error) {
	spec, err := campaign.ParseSpec([]byte(fmt.Sprintf(c.spec, seed)))
	if err != nil {
		return nil, nil, err
	}
	m, err := spec.Matrix()
	if err != nil {
		return nil, nil, err
	}
	scenarios, err := m.Scenarios()
	return spec, scenarios, err
}

// testbedStart builds and starts the case-study testbed and waits for its
// four switches to connect: what every scenario pays before its timeline
// begins.
func testbedStart(profile controller.Profile, seed int64) (time.Duration, error) {
	start := time.Now()
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Profile: profile, StochasticSeed: seed})
	if err != nil {
		return 0, err
	}
	if err := tb.Start(); err != nil {
		return 0, err
	}
	defer tb.Stop()
	if err := tb.WaitConnected(10 * time.Second); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// checkPaperCell sets one scenario's outcome against the paper's matrix
// and returns why it disagrees, or "".
func checkPaperCell(res campaign.ScenarioResult) string {
	if res.Status != campaign.StatusOK || res.Outcome == nil {
		return fmt.Sprintf("status %s: %s", res.Status, res.Err)
	}
	sc := res.Scenario
	switch {
	case res.Outcome.Interruption != nil:
		r, want := res.Outcome.Interruption, tableII[sc.Profile][sc.FailMode]
		if !r.ExtToExtBefore || !r.IntToExtBefore {
			return "access broken before the attack (t=30s cells)"
		}
		if r.ExtToInt != want.extToInt || r.IntToExtAfter != want.intToExtAfter {
			return fmt.Sprintf("Table II: ext->int=%v int->ext(t=95s)=%v, paper has %v and %v",
				r.ExtToInt, r.IntToExtAfter, want.extToInt, want.intToExtAfter)
		}
		if (r.FinalState == "sigma3") != want.sigma3 {
			return fmt.Sprintf("attack ended in state %s", r.FinalState)
		}
	case res.Outcome.Suppression != nil:
		r := res.Outcome.Suppression
		attacked := sc.Attack == campaign.AttackSuppression
		// Figure 11's asterisk: suppression is a full denial of service on
		// POX and a degradation elsewhere.
		if want := attacked && sc.Profile == controller.ProfilePOX; r.DoS() != want {
			return fmt.Sprintf("Fig. 11: DoS=%v, paper has %v", r.DoS(), want)
		}
		if attacked && r.FlowModsDropped == 0 {
			return "suppression dropped no FLOW_MOD"
		}
	default:
		return "no outcome recorded"
	}
	return ""
}

// runPaper runs the paper's Figure 11 and Table II matrix once through
// campaign.Runner, exactly as attain-campaign would, artifacts included.
// It is bound by the scaled timeline, not by the processor: it pins the
// wall time a user waits for the paper's artifacts. One op is one scenario.
//
// Its CPU figure is the least steady number in the benchmark, and not
// because of the harness: the scaled clock spins through the last
// millisecond of every wait, so most of this workload's CPU is spin, and
// how much depends on how the kernel rounds each sleep. It flips between
// about 5.3 s and 6.3 s from one run of unmodified code to the next.
func runPaper(c paperConfig, rc *runCtx) error {
	root := rc.tr.begin("workload."+c.name, 0)
	defer rc.tr.end(root)

	// Set-up: plan the campaign, open its store, and bring one testbed up
	// per controller profile. Nine times over, for a steady figure.
	var setups, starts []float64
	var spec *campaign.Spec
	var scenarios []campaign.Scenario
	var store *campaign.Store
	const reps = 9
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		if spec, scenarios, err = paperPlan(c, rc.seed); err != nil {
			return err
		}
		if store, err = campaign.NewStore(filepath.Join(rc.scratch, fmt.Sprintf("paper-%d", i))); err != nil {
			return err
		}
		for _, p := range []controller.Profile{controller.ProfileFloodlight, controller.ProfilePOX, controller.ProfileRyu} {
			var d time.Duration
			rc.tr.timed("experiment.Testbed.Start", root, func() { d, err = testbedStart(p, rc.seed) })
			if err != nil {
				return err
			}
			starts = append(starts, ms(d))
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < reps-1 {
			if err := store.Abort(); err != nil {
				return err
			}
		}
	}
	rc.rep.set("setup_s", quietLow(setups))
	rc.rep.set("experiment.testbed_start_ms", median(starts))

	for i := range scenarios {
		scenarios[i].Trace = rc.trace
	}
	cfg := spec.RunnerConfig()
	cfg.Store = store
	span := rc.tr.begin("campaign.Runner.Run", root)
	cpu0 := cpuTime()
	report, err := campaign.NewRunner(cfg).Run(context.Background(), scenarios)
	cpu := cpuTime() - cpu0
	rc.tr.end(span)
	if err != nil {
		return err
	}

	var supp, inter []float64
	for _, res := range report.Results {
		rc.rep.attempt(1)
		if why := checkPaperCell(res); why != "" {
			rc.rep.fail(1, "%s: %s", res.Scenario.Name, why)
		}
		if res.Scenario.Kind == campaign.KindSuppression {
			supp = append(supp, res.Duration.Seconds())
		} else {
			inter = append(inter, res.Duration.Seconds())
		}
	}
	for _, name := range []string{campaign.Fig11File, campaign.TableIIFile} {
		if st, err := os.Stat(filepath.Join(store.Dir(), name)); err != nil || st.Size() == 0 {
			rc.rep.fail(1, "%s: artifact %s missing or empty", c.name, name)
		}
	}
	n := float64(len(scenarios))
	rc.rep.set("ops_per_s", n/report.Wall.Seconds())
	rc.rep.set("latency_ms", ms(report.Wall))
	rc.rep.set("cpu_us_per_op", us(cpu)/n)
	rc.rep.set("peak_rss_mb", peakRSSMB())
	rc.rep.set("experiment.suppression_wall_s", median(supp))
	rc.rep.set("experiment.interruption_wall_s", median(inter))
	fmt.Fprintf(os.Stderr, "  %d scenarios in %.3f s wall (%d workers, time scale 20), cpu %.3f s; scenario median: suppression %.3f s, interruption %.3f s\n",
		len(scenarios), report.Wall.Seconds(), cfg.Workers, cpu.Seconds(), median(supp), median(inter))
	return nil
}
