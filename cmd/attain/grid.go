package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"time"

	"attain/internal/campaign"
	"attain/internal/grid"
	"attain/internal/telemetry"
)

// runGrid runs a campaign distributed across worker processes: a
// coordinator shards the expanded scenario matrix over TCP under
// heartbeat-refreshed leases, workers execute scenarios on isolated
// testbeds, and results stream back into the same index-ordered artifact
// store `attain campaign` writes: same seed, same bytes.
//
//	attain grid serve -spec spec.json -out results/ -listen :7117
//	attain grid work  -connect host:7117 -slots 2
//	attain grid local -spec spec.json -out results/ -workers 3
//
// serve expands the spec and waits for workers; work connects to a
// coordinator and executes leases until the campaign completes; local is
// the single-machine mode: it starts a coordinator on loopback and spawns
// -workers worker subprocesses (re-invoking this binary as
// `attain grid work`).
//
// As in `attain campaign`, individual scenario failures do not fail the
// campaign; they are recorded in the artifacts. A worker death or stall
// mid-scenario expires the lease and the scenario is requeued on another
// worker, so the campaign completes with a full result set regardless.
func runGrid(args []string) error {
	const usage = "usage: attain grid <serve|work|local> [flags] (-h per mode for details)"
	if len(args) < 1 {
		return errors.New(usage)
	}
	switch args[0] {
	case "-h", "-help", "--help":
		fmt.Fprintln(os.Stderr, usage)
		return flag.ErrHelp
	case "serve":
		return runGridServe(args[1:])
	case "work":
		return runGridWork(args[1:])
	case "local":
		return runGridLocal(args[1:])
	default:
		return fmt.Errorf("unknown grid mode %q (want serve, work, or local)", args[0])
	}
}

// gridTelemetry starts the -debug endpoint and publishes the grid counters
// on it. The returned telemetry is always enabled so counters are
// collected even without -debug.
func gridTelemetry(debugAddr string) (*telemetry.Telemetry, error) {
	tel := telemetry.New(telemetry.Options{})
	tel.PublishExpvar("grid")
	return tel, startDebug(debugAddr)
}

func runGridServe(args []string) error {
	fs := newFlagSet("grid serve")
	specPath := fs.String("spec", "", "campaign spec file (JSON, required)")
	out := fs.String("out", "campaign-out", "artifact directory")
	listen := fs.String("listen", ":7117", "address to accept workers on")
	lease := fs.Duration("lease", grid.DefaultLeaseTTL, "lease TTL before an unclaimed scenario is requeued")
	requeues := fs.Int("requeues", grid.DefaultRequeues, "max requeues per scenario before it is recorded failed")
	trace := fs.Bool("trace", false, "collect per-scenario telemetry traces (written under -out as traces/*.jsonl)")
	debugAddr := debugFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		fs.Usage()
		return fmt.Errorf("-spec is required")
	}

	tel, err := gridTelemetry(*debugAddr)
	if err != nil {
		return err
	}
	spec, scenarios, err := loadScenarios(*specPath, *trace)
	if err != nil {
		return err
	}
	store, err := campaign.NewStore(*out)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	fmt.Printf("campaign %q: %d scenarios, accepting workers on %s\n",
		spec.Name, len(scenarios), ln.Addr())

	ctx, stop := interruptContext()
	defer stop()
	co := grid.NewCoordinator(grid.CoordinatorConfig{
		Campaign:  spec.Name,
		Scenarios: scenarios,
		Store:     store,
		LeaseTTL:  *lease,
		Requeues:  *requeues,
		Runner:    spec.RunnerConfig(),
		Telemetry: tel,
		Progress:  os.Stdout,
	})
	report, err := co.Serve(ctx, ln)
	if err != nil {
		return err
	}
	return printReport(report, *out)
}

func runGridWork(args []string) error {
	fs := newFlagSet("grid work")
	connect := fs.String("connect", "", "coordinator address (host:port, required)")
	name := fs.String("name", "", "worker name (default: local address)")
	slots := fs.Int("slots", 1, "scenarios to execute in parallel")
	timeout := fs.Duration("timeout", 0, "per-scenario deadline (0 = adopt the campaign's)")
	retries := fs.Int("retries", 0, "infra-failure retries per scenario (0 = adopt the campaign's)")
	backoff := fs.Duration("backoff", 0, "base retry backoff (0 = adopt the campaign's)")
	quiet := fs.Bool("quiet", false, "suppress per-scenario progress lines")
	debugAddr := debugFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		fs.Usage()
		return fmt.Errorf("-connect is required")
	}

	tel, err := gridTelemetry(*debugAddr)
	if err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()
	var progress *os.File
	if !*quiet {
		progress = os.Stdout
	}
	w := grid.NewWorker(grid.WorkerConfig{
		Name:  *name,
		Slots: *slots,
		Runner: campaign.RunnerConfig{
			Timeout: *timeout,
			Retries: *retries,
			Backoff: *backoff,
		},
		Telemetry: tel,
		Progress:  progress,
	})
	return w.Run(ctx, *connect)
}

func runGridLocal(args []string) error {
	fs := newFlagSet("grid local")
	specPath := fs.String("spec", "", "campaign spec file (JSON, required)")
	out := fs.String("out", "campaign-out", "artifact directory")
	workers := fs.Int("workers", 2, "worker subprocesses to spawn")
	slots := fs.Int("slots", 1, "parallel scenarios per worker")
	lease := fs.Duration("lease", grid.DefaultLeaseTTL, "lease TTL before an unclaimed scenario is requeued")
	requeues := fs.Int("requeues", grid.DefaultRequeues, "max requeues per scenario before it is recorded failed")
	trace := fs.Bool("trace", false, "collect per-scenario telemetry traces")
	inprocess := fs.Bool("inprocess", false, "run workers as goroutines instead of subprocesses")
	debugAddr := debugFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		fs.Usage()
		return fmt.Errorf("-spec is required")
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1")
	}

	tel, err := gridTelemetry(*debugAddr)
	if err != nil {
		return err
	}
	spec, scenarios, err := loadScenarios(*specPath, *trace)
	if err != nil {
		return err
	}
	store, err := campaign.NewStore(*out)
	if err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()

	ccfg := grid.CoordinatorConfig{
		Campaign:  spec.Name,
		Scenarios: scenarios,
		Store:     store,
		LeaseTTL:  *lease,
		Requeues:  *requeues,
		Runner:    spec.RunnerConfig(),
		Telemetry: tel,
		Progress:  os.Stdout,
	}
	fmt.Printf("campaign %q: %d scenarios across %d local workers\n",
		spec.Name, len(scenarios), *workers)

	var report *campaign.Report
	if *inprocess {
		report, err = grid.RunLocal(ctx, grid.LocalConfig{
			Workers:     *workers,
			Coordinator: ccfg,
			Worker:      grid.WorkerConfig{Slots: *slots, Telemetry: tel},
		})
	} else {
		report, err = runLocalSubprocesses(ctx, ccfg, *workers, *slots)
	}
	if err != nil {
		return err
	}
	return printReport(report, *out)
}

// runLocalSubprocesses starts the coordinator on an ephemeral loopback
// port and re-invokes this binary -workers times as `attain grid work`
// against it. Workers exit on their own when the coordinator sends DONE;
// whatever survives the campaign (e.g. after ^C) is killed on return.
func runLocalSubprocesses(ctx context.Context, ccfg grid.CoordinatorConfig, workers, slots int) (*campaign.Report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary for worker spawn: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	addr := ln.Addr().String()

	cmds := make([]*exec.Cmd, 0, workers)
	for i := 1; i <= workers; i++ {
		cmd := exec.Command(self, "grid", "work",
			"-connect", addr,
			"-name", fmt.Sprintf("worker-%d", i),
			"-slots", fmt.Sprint(slots),
			"-quiet")
		cmd.Stdout = os.Stderr // keep stdout clean for the coordinator's progress
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, running := range cmds {
				running.Process.Kill()
				running.Wait()
			}
			ln.Close()
			return nil, fmt.Errorf("spawn worker %d: %w", i, err)
		}
		cmds = append(cmds, cmd)
	}

	report, serveErr := grid.NewCoordinator(ccfg).Serve(ctx, ln)
	// Workers exit on their own when the coordinator sends DONE; reap
	// them, killing stragglers (e.g. after ^C) past a grace period.
	for _, cmd := range cmds {
		waited := make(chan struct{})
		go func(c *exec.Cmd) { c.Wait(); close(waited) }(cmd)
		select {
		case <-waited:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-waited
		}
	}
	if serveErr != nil {
		return nil, serveErr
	}
	return report, nil
}
