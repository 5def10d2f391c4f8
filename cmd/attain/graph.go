package main

import (
	"fmt"
	"os"

	"attain/internal/core/compile"
	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/experiment"
	"attain/internal/topo"
)

// runGraph renders ATTAIN models as Graphviz DOT or text: the data-plane
// graph N_D, the control-plane relation N_C, and attack state graphs Σ_G,
// reproducing the paper's Figures 3, 4, 5, 8, 9, 10b, and 12b.
//
//	attain graph -example fig3 -kind nd          # Figure 3
//	attain graph -example fig4 -kind nc          # Figure 4
//	attain graph -example enterprise -kind nd    # Figure 8
//	attain graph -example enterprise -kind nc    # Figure 9
//	attain graph -example trivial                # Figure 5 (attack graph)
//	attain graph -example suppression            # Figure 10b
//	attain graph -example interruption           # Figure 12b
//	attain graph -system sys.attain -kind summary
//	attain graph -system sys.attain -attack states.attain
//	attain graph -topo fattree:4                 # generated topology, DOT
//	attain graph -topo leafspine:4x12x2 -format json
func runGraph(args []string) error {
	fs := newFlagSet("graph")
	example := fs.String("example", "", "built-in example: fig3, fig4, enterprise, trivial, suppression, interruption")
	kind := fs.String("kind", "", "what to render for a system: nd, nc, or summary")
	systemPath := fs.String("system", "", "system model file to render")
	attackPath := fs.String("attack", "", "attack states file to render as a state graph")
	topoDesc := fs.String("topo", "", `generated topology to render, e.g. "fattree:4", "leafspine:4x12x2", "jellyfish:50x5"`)
	topoSeed := fs.Int64("seed", 1, "generator seed for -topo")
	format := fs.String("format", "dot", "-topo output format: dot or json")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *topoDesc != "" {
		return renderTopo(*topoDesc, *topoSeed, *format)
	}
	if *example != "" {
		return renderExample(*example, *kind)
	}
	if *systemPath == "" {
		return fmt.Errorf("either -example or -system is required")
	}
	data, err := os.ReadFile(*systemPath)
	if err != nil {
		return err
	}
	sys, err := compile.CompileSystem(string(data))
	if err != nil {
		return err
	}
	if *attackPath != "" {
		adata, err := os.ReadFile(*attackPath)
		if err != nil {
			return err
		}
		attack, err := compile.CompileAttack(string(adata), sys)
		if err != nil {
			return err
		}
		fmt.Print(attack.Graph().DOT())
		return nil
	}
	return renderSystem(sys, *kind)
}

// renderTopo generates a topology from its descriptor and renders it as
// Graphviz DOT or canonical JSON.
func renderTopo(desc string, seed int64, format string) error {
	g, err := topo.Parse(desc, seed)
	if err != nil {
		return err
	}
	switch format {
	case "dot":
		fmt.Print(g.DOT())
	case "json":
		data, err := g.CanonicalJSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
	default:
		return fmt.Errorf("unknown -format %q (want dot or json)", format)
	}
	return nil
}

func renderSystem(sys *model.System, kind string) error {
	switch kind {
	case "nd":
		fmt.Print(sys.DataPlaneDOT())
	case "nc":
		fmt.Print(sys.ControlPlaneDOT())
	case "summary", "":
		fmt.Print(sys.Summary())
	default:
		return fmt.Errorf("unknown kind %q (want nd, nc, or summary)", kind)
	}
	return nil
}

func renderAttack(a *lang.Attack) error {
	fmt.Print(a.Describe())
	fmt.Println()
	fmt.Print(a.Graph().DOT())
	return nil
}

func renderExample(name, kind string) error {
	enterprise := experiment.EnterpriseSystem()
	switch name {
	case "fig3":
		return renderSystem(model.Figure3System(), orDefault(kind, "nd"))
	case "fig4":
		return renderSystem(model.Figure4System(), orDefault(kind, "nc"))
	case "enterprise":
		return renderSystem(enterprise, kind)
	case "trivial":
		return renderAttack(experiment.TrivialAttack(enterprise))
	case "suppression":
		return renderAttack(experiment.SuppressionAttack(enterprise))
	case "interruption":
		return renderAttack(experiment.InterruptionAttack(enterprise))
	default:
		return fmt.Errorf("unknown example %q", name)
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
