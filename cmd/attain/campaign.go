package main

import (
	"fmt"
	"os"

	"attain/internal/campaign"
)

// runCampaign runs an attack campaign described by a JSON spec file: the
// cross-product of experiment kinds, controller profiles, attacks, switch
// fail modes, topologies and trials, each cell executed on a fully
// isolated testbed by a bounded worker pool.
//
//	attain campaign -spec examples/campaign/paper-eval.json -out results/
//	attain campaign -spec spec.json -workers 8        # override spec workers
//	attain campaign -spec spec.json -dry-run          # list scenarios only
//	attain campaign -spec spec.json -out results/ -resume   # continue an interrupted run
//
// The paper's evaluation is a set of specs: fig11.json (Figure 11 and the
// control-plane message counts), fig11-full.json (the same at the paper's
// full trial counts), table2.json (Table II) and paper-eval.json (both).
// fabric-5k.json is the 5,000-switch poisoned fabric.
//
// -resume keeps the valid results.jsonl prefix already in -out and runs
// only the remaining scenarios instead of failing or duplicating rows;
// the CSV aggregates and summary are rebuilt from the scenarios the
// resuming run executed (results.jsonl is always the complete set).
//
// Artifacts land under -out: results.jsonl (one record per scenario, in
// matrix order), fig11.csv / table2.csv / fabric.csv / detect.csv
// aggregates, and summary.txt.
//
// Individual scenario failures do not fail the campaign: they are recorded
// in the artifacts and surfaced in the final summary, and the command still
// exits 0. Only spec, store, or flag errors exit 1. Interrupting with ^C
// stops dispatching new scenarios, lets in-flight ones drain, and records
// the rest as skipped.
func runCampaign(args []string) error {
	fs := newFlagSet("campaign")
	specPath := fs.String("spec", "", "campaign spec file (JSON, required)")
	out := fs.String("out", "campaign-out", "artifact directory")
	workers := fs.Int("workers", 0, "override the spec's worker count")
	dryRun := fs.Bool("dry-run", false, "list the expanded scenarios without running them")
	resume := fs.Bool("resume", false, "continue an interrupted run: keep -out's valid results.jsonl prefix and run only the remaining scenarios")
	trace := fs.Bool("trace", false, "collect per-scenario telemetry traces (overrides the spec; written under -out as traces/*.jsonl)")
	debugAddr := debugFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		fs.Usage()
		return fmt.Errorf("-spec is required")
	}
	if err := startDebug(*debugAddr); err != nil {
		return err
	}
	spec, scenarios, err := loadScenarios(*specPath, *trace)
	if err != nil {
		return err
	}

	if *dryRun {
		for _, sc := range scenarios {
			fmt.Printf("%3d  %-45s seed=%d\n", sc.Index, sc.Name, sc.Seed)
		}
		fmt.Printf("%d scenarios\n", len(scenarios))
		return nil
	}

	var store *campaign.Store
	if *resume {
		var done []campaign.Status
		store, done, err = campaign.ResumeStore(*out)
		if err != nil {
			return err
		}
		if len(done) >= len(scenarios) {
			store.Abort()
			fmt.Printf("campaign already complete: %d/%d scenarios recorded in %s\n",
				len(done), len(scenarios), *out)
			return nil
		}
		if len(done) > 0 {
			fmt.Printf("resuming: %d/%d scenarios already recorded, running the remaining %d\n",
				len(done), len(scenarios), len(scenarios)-len(done))
		}
		// Records stream in strict index order, so the recorded set is
		// always the prefix [0, done); only the tail remains.
		scenarios = scenarios[len(done):]
	} else {
		store, err = campaign.NewStore(*out)
		if err != nil {
			return err
		}
	}
	cfg := spec.RunnerConfig()
	if *workers > 0 {
		cfg.Workers = *workers
	}
	cfg.Store = store
	cfg.Progress = os.Stdout

	ctx, stop := interruptContext()
	defer stop()

	if spec.Name != "" {
		fmt.Printf("campaign %q: %d scenarios\n", spec.Name, len(scenarios))
	}
	report, err := campaign.NewRunner(cfg).Run(ctx, scenarios)
	if err != nil {
		return err
	}
	return printReport(report, *out)
}
