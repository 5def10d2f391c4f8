package grid

import (
	"context"
	"fmt"
	"net"
	"sync"

	"attain/internal/campaign"
)

// LocalConfig parameterizes RunLocal.
type LocalConfig struct {
	// Workers is how many in-process workers to run (default 2).
	Workers int
	// Coordinator configures the campaign side; its listener binds to
	// loopback on an ephemeral port.
	Coordinator CoordinatorConfig
	// Worker is the template every spawned worker shares; Name is
	// overridden per worker ("worker-1", "worker-2", ...).
	Worker WorkerConfig
}

// RunLocal runs a full grid campaign inside one process: a coordinator on
// a loopback listener plus N workers connected to it over real TCP. The
// protocol, lease machinery, and store path are exactly the distributed
// ones — only process boundaries are elided. `attain grid local` spawns
// true subprocesses instead; this entry point serves tests and
// embedding.
func RunLocal(ctx context.Context, cfg LocalConfig) (*campaign.Report, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("grid: listen: %w", err)
	}
	co := NewCoordinator(cfg.Coordinator)

	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var wg sync.WaitGroup
	for i := 1; i <= cfg.Workers; i++ {
		wcfg := cfg.Worker
		wcfg.Name = fmt.Sprintf("worker-%d", i)
		w := NewWorker(wcfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker errors after a completed campaign are expected
			// (the coordinator tears connections down); the campaign
			// report is the source of truth.
			_ = w.Run(wctx, ln.Addr().String())
		}()
	}
	rep, err := co.Serve(ctx, ln)
	stopWorkers()
	wg.Wait()
	return rep, err
}
