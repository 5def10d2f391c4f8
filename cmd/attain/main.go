// Command attain is the ATTAIN framework's one binary. Each subcommand is
// one way to drive it:
//
//	attain validate -system sys.attain -attacker atk.attain -attack states.attain
//	attain describe -system sys.attain -attacker atk.attain -attack states.attain
//	attain run      -system sys.attain -attacker atk.attain -attack states.attain [-base-port 16653]
//	attain campaign -spec examples/campaign/paper-eval.json -out results/
//	attain grid     serve|work|local [flags]
//	attain serve    -listen :7118 -root campaigns/
//	attain conform  [-listen :6653]
//	attain graph    -example enterprise -kind nd
//	attain synth    -count 10 -seed 42
//
// validate, describe and run compile the paper's three input files (system
// model, attack model, attack states) and check, print or run them.
// campaign, grid and serve execute campaign specs: the paper's evaluation
// (examples/campaign/fig11.json, table2.json, paper-eval.json) and fabric
// runs (fabric-5k.json, fabric-sweep.json) are specs like any other.
// conform runs the OpenFlow 1.0 conformance suite, graph renders models and
// generated topologies, and synth generates attack programs.
//
// Every subcommand takes -h. Exit status is 0 on success and on -h, 1 on
// any error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"attain/internal/campaign"
	"attain/internal/controller"
	"attain/internal/experiment"
	"attain/internal/telemetry"
)

// command is one attain subcommand.
type command struct {
	name, summary string
	run           func(args []string) error
}

var commands = []command{
	{"validate", "compile and cross-validate the three input files", attackCommand("validate")},
	{"describe", "print the compiled attack and its state graph (DOT)", attackCommand("describe")},
	{"run", "run the injector as a loopback TCP proxy until interrupted", attackCommand("run")},
	{"campaign", "run a campaign spec on the in-process runner", runCampaign},
	{"grid", "run a campaign spec across worker processes (serve|work|local)", runGrid},
	{"serve", "run campaigns as an HTTP service with durable resume", runServe},
	{"conform", "run the OpenFlow 1.0 conformance suite against a switch", runConform},
	{"graph", "render models, attack graphs and generated topologies", runGraph},
	{"synth", "generate seeded attack programs as DSL", runSynth},
}

func main() {
	err := run(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "attain:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("no subcommand\n%s", usage())
	}
	if args[0] == "-h" || args[0] == "-help" || args[0] == "--help" || args[0] == "help" {
		fmt.Fprint(os.Stderr, usage())
		return flag.ErrHelp
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:])
		}
	}
	return fmt.Errorf("unknown subcommand %q\n%s", args[0], usage())
}

// usage lists the subcommands.
func usage() string {
	var b strings.Builder
	b.WriteString("usage: attain <subcommand> [flags] (-h per subcommand for its flags)\nsubcommands:\n")
	for _, c := range commands {
		fmt.Fprintf(&b, "  %-9s %s\n", c.name, c.summary)
	}
	return b.String()
}

// newFlagSet returns a subcommand's flag set: parse errors and -h come back
// as errors (flag.ErrHelp for -h) instead of exiting.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("attain "+name, flag.ContinueOnError)
}

// debugFlag registers the shared -debug flag.
func debugFlag(fs *flag.FlagSet) *string {
	return fs.String("debug", "", "serve expvar and pprof debug endpoints on this address (e.g. localhost:6060)")
}

// startDebug serves the expvar and pprof endpoints on addr, if set.
func startDebug(addr string) error {
	if addr == "" {
		return nil
	}
	bound, err := telemetry.ServeDebug(addr)
	if err != nil {
		return fmt.Errorf("start debug server: %w", err)
	}
	fmt.Printf("debug endpoints on http://%s/debug/\n", bound)
	return nil
}

// interruptContext is cancelled by SIGINT or SIGTERM.
func interruptContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// loadScenarios expands a spec file into the campaign's scenario list;
// trace turns on per-scenario traces whatever the spec says.
func loadScenarios(specPath string, trace bool) (*campaign.Spec, []campaign.Scenario, error) {
	spec, err := campaign.LoadSpec(specPath)
	if err != nil {
		return nil, nil, err
	}
	matrix, err := spec.Matrix()
	if err != nil {
		return nil, nil, err
	}
	if trace {
		matrix.Trace = true
	}
	scenarios, err := matrix.Scenarios()
	if err != nil {
		return nil, nil, err
	}
	return spec, scenarios, nil
}

// printReport prints every aggregate view a finished campaign supports:
// Figure 11, each profile's control-plane message counts (every attacked
// row against the profile's first baseline row), Table II, and the fabric
// rows as fabric.csv has them. Then it names the artifact directory.
func printReport(report *campaign.Report, out string) error {
	if supp := report.SuppressionResults(); len(supp) > 0 {
		fmt.Println()
		fmt.Print(experiment.RenderFigure11(supp))
		baselines := make(map[controller.Profile]*experiment.SuppressionResult)
		for _, r := range supp {
			if !r.Attacked && baselines[r.Profile] == nil {
				baselines[r.Profile] = r
			}
		}
		for _, r := range supp {
			if base := baselines[r.Profile]; r.Attacked && base != nil {
				fmt.Println()
				fmt.Print(experiment.RenderControlPlaneOverhead(base, r))
			}
		}
	}
	if inter := report.InterruptionResults(); len(inter) > 0 {
		fmt.Println()
		fmt.Print(experiment.RenderTableII(inter))
	}
	if fabric := report.FabricResults(); len(fabric) > 0 {
		fmt.Println("\nFabric convergence and discovery audit (fabric.csv):")
		if err := campaign.WriteFabricCSV(os.Stdout, fabric); err != nil {
			return err
		}
	}
	fmt.Printf("\nartifacts written to %s\n", out)
	return nil
}
