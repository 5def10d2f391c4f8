// Package campaign orchestrates whole evaluation campaigns: cross-product
// matrices of attack scenarios (attack × controller profile × switch fail
// mode × seed × trial) executed by a bounded worker pool, where every
// scenario runs on a fully isolated testbed — its own scaled clock,
// in-memory transports, switches, hosts, and injector — so parallel runs
// never share state.
//
// The paper's evaluation (§VII) is exactly such a matrix: {Figure 11
// suppression, Table II interruption} × {Floodlight, POX, Ryu} ×
// {fail-safe, fail-secure} × trial counts. `attain campaign` executes it
// from spec files (examples/campaign/fig11.json, table2.json,
// paper-eval.json), and from any other spec sweeping template-generated
// attacks, topologies or generated programs across the same axes.
//
// On top of the serial lab path the runner adds a robustness layer:
// per-scenario deadlines, retry-with-backoff for infrastructure failures
// (distinguished from legitimate attack outcomes, which are results, not
// errors), panic capture so one bad scenario cannot kill the campaign,
// and cancellation that drains cleanly. An artifact Store streams
// per-scenario records as JSONL — in scenario index order regardless of
// completion order, so equal-seed campaigns produce identical artifacts —
// and aggregates Figure 11 / Table II CSVs at the end.
package campaign

import (
	"fmt"
	"strings"
	"time"

	"attain/internal/controller"
	"attain/internal/experiment"
	"attain/internal/monitor"
	"attain/internal/switchsim"
	"attain/internal/topo"
)

// Kind selects which paper experiment a scenario runs.
type Kind string

const (
	// KindSuppression runs the §VII-B workload (ping + iperf h1→h6)
	// under a configurable attack condition.
	KindSuppression Kind = "suppression"
	// KindInterruption runs the §VII-C timeline (Table II access checks)
	// under the Figure 12 attack.
	KindInterruption Kind = "interruption"
	// KindFabric runs a whole generated topology in one process
	// (internal/topo) under a topology-level attack, sweeping fabric sizes
	// from tens to 1,000+ switches.
	KindFabric Kind = "fabric"
	// KindSynth runs a seeded generated attack program (internal/synth)
	// against a generated topology: the program is regenerated from
	// (SynthSeed, SynthIndex), compiled through the real text-DSL parser,
	// and interposed on the fabric's control plane with a detection hook
	// scoring fabricated traffic.
	KindSynth Kind = "synth"
)

// Attack condition names for suppression-kind scenarios, materialized by
// BuildAttack from the core/templates generators and the experiment
// builders.
const (
	AttackBaseline    = "baseline"
	AttackSuppression = "suppression"
	AttackDelay       = "delay"
	AttackFuzz        = "fuzz"
)

// Workload tunes a scenario's monitors and timeline. The zero value uses
// the lab's reduced trial counts; Full switches to the paper's.
type Workload struct {
	// Full selects the paper-faithful trial counts (60 ping / 30 iperf).
	Full bool
	// Settle is the virtual time between injector start and the first
	// workload.
	Settle time.Duration
	// Ping and Iperf tune the §VII-B monitors.
	Ping  monitor.PingConfig
	Iperf monitor.IperfMonitorConfig
	// The remaining knobs tune the §VII-C timeline.
	AccessAttempts  int
	AccessInterval  time.Duration
	TriggerWindow   time.Duration
	PostTriggerWait time.Duration
	EchoInterval    time.Duration
	EchoTimeout     time.Duration
}

// Scenario is one cell of a campaign matrix: everything needed to run one
// isolated experiment, including its own RNG seed for stochastic rules.
// Every field is tagged omitzero so a grid LEASE frame carries only the
// fields a scenario sets (Workload is zero for every stub and matrix
// scenario); the store writes Record, not Scenario.
type Scenario struct {
	// Index is the scenario's position in the expanded matrix; artifacts
	// are ordered by it.
	Index int `json:",omitzero"`
	// Name uniquely identifies the scenario within the campaign.
	Name string `json:",omitzero"`
	// Kind selects the experiment; Attack applies to suppression- and
	// fabric-kind scenarios, FailMode to interruption-kind ones.
	Kind     Kind               `json:",omitzero"`
	Attack   string             `json:",omitzero"`
	Profile  controller.Profile `json:",omitzero"`
	FailMode switchsim.FailMode `json:",omitzero"`
	// Topology is the generator descriptor for fabric-kind scenarios
	// (e.g. "leafspine:4x12x2", "fattree:8").
	Topology string `json:",omitzero"`
	// Shards and Wave carry the matrix's execution knobs to fabric- and
	// synth-kind executors (0 = one event loop / default wave size).
	// Execution-only: not part of the scenario name or seed derivation.
	Shards int `json:",omitzero"`
	Wave   int `json:",omitzero"`
	// TimeScale speeds up the scenario's private virtual clock.
	TimeScale int `json:",omitzero"`
	// Trial numbers stochastic repeats of the same cell, from 1.
	Trial int `json:",omitzero"`
	// Seed drives the scenario's probabilistic rules (Rule.Prob); derived
	// from the campaign seed and the scenario name by Matrix.Expand.
	Seed int64 `json:",omitzero"`
	// SynthIndex and SynthSeed identify the generated program of a
	// synth-kind scenario: the executor regenerates program SynthIndex
	// from the campaign-level base seed SynthSeed, so any grid shard
	// reconstructs the identical program from the spec alone.
	SynthIndex int      `json:",omitzero"`
	SynthSeed  int64    `json:",omitzero"`
	Workload   Workload `json:",omitzero"`
	// Trace enables telemetry for the scenario's testbed; the flushed
	// JSONL trace lands on the outcome and the Store writes it under
	// traces/.
	Trace bool `json:",omitzero"`
}

// Outcome is what a successfully executed scenario produced; exactly one
// of Suppression/Interruption/Fabric is set, matching the scenario kind
// (synth-kind scenarios set Fabric plus the Synth sidecar describing the
// regenerated program).
type Outcome struct {
	Suppression  *experiment.SuppressionResult
	Interruption *experiment.InterruptionResult
	Fabric       *topo.FabricResult
	Synth        *SynthInfo
}

// SynthInfo records which generated program a synth-kind scenario ran, in
// enough detail to audit shard equivalence: Seed is the per-program seed
// derived from the campaign base, SHA256 digests the emitted DSL.
type SynthInfo struct {
	Index  int    `json:"index"`
	Seed   int64  `json:"seed"`
	SHA256 string `json:"sha256"`
	States int    `json:"states"`
	Rules  int    `json:"rules"`
}

// Status classifies how a scenario ended.
type Status string

const (
	StatusOK     Status = "ok"
	StatusFailed Status = "failed"
	// StatusSkipped marks scenarios never started because the campaign
	// was cancelled.
	StatusSkipped Status = "skipped"
)

// ScenarioResult couples a scenario with how its execution went.
type ScenarioResult struct {
	Scenario Scenario
	// Outcome is set only when Status is StatusOK.
	Outcome *Outcome
	Status  Status
	// Err is the final attempt's failure reason when Status != StatusOK.
	Err string
	// Attempts counts executions including retries (0 when skipped).
	Attempts int
	Started  time.Time
	Duration time.Duration
}

// Report is a finished campaign: one result per scenario, in matrix index
// order.
type Report struct {
	Results []ScenarioResult
	// Wall is the campaign's total wall-clock time.
	Wall time.Duration
}

// Failed returns the results that did not complete successfully.
func (r *Report) Failed() []ScenarioResult {
	var out []ScenarioResult
	for _, res := range r.Results {
		if res.Status != StatusOK {
			out = append(out, res)
		}
	}
	return out
}

// SuppressionResults returns the successful suppression outcomes in matrix
// order, ready for experiment.RenderFigure11 / WriteFigure11CSV.
func (r *Report) SuppressionResults() []*experiment.SuppressionResult {
	var out []*experiment.SuppressionResult
	for _, res := range r.Results {
		if res.Outcome != nil && res.Outcome.Suppression != nil {
			out = append(out, res.Outcome.Suppression)
		}
	}
	return out
}

// InterruptionResults returns the successful interruption outcomes in
// matrix order, ready for experiment.RenderTableII / WriteTableIICSV.
func (r *Report) InterruptionResults() []*experiment.InterruptionResult {
	var out []*experiment.InterruptionResult
	for _, res := range r.Results {
		if res.Outcome != nil && res.Outcome.Interruption != nil {
			out = append(out, res.Outcome.Interruption)
		}
	}
	return out
}

// FabricResults returns the successful fabric outcomes in matrix order,
// ready for WriteFabricCSV.
func (r *Report) FabricResults() []*topo.FabricResult {
	var out []*topo.FabricResult
	for _, res := range r.Results {
		if res.Outcome != nil && res.Outcome.Fabric != nil {
			out = append(out, res.Outcome.Fabric)
		}
	}
	return out
}

// Summary renders the campaign's final tally plus one line per failure,
// suitable for printing after Run.
func (r *Report) Summary() string {
	var ok, failed, skipped, retried int
	for _, res := range r.Results {
		switch res.Status {
		case StatusOK:
			ok++
		case StatusSkipped:
			skipped++
		default:
			failed++
		}
		if res.Attempts > 1 {
			retried++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d/%d ok, %d failed, %d skipped, %d retried in %s\n",
		ok, len(r.Results), failed, skipped, retried, r.Wall.Round(time.Millisecond))
	for _, res := range r.Results {
		if res.Status == StatusOK {
			continue
		}
		fmt.Fprintf(&b, "  %s %s: %s (attempts=%d)\n", res.Status, res.Scenario.Name, res.Err, res.Attempts)
	}
	return b.String()
}
