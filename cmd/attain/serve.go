package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"attain/internal/gridsvc"
)

// runServe is injection-as-a-service: a long-lived HTTP service that
// accepts campaign specs, runs them on a durable in-process grid (journaled
// leases + resumable artifact prefixes), and serves live status, SSE
// progress streams, and artifact downloads.
//
//	attain serve -listen :7118 -root campaigns/
//
// Submit a campaign and watch it:
//
//	curl -d @spec.json http://localhost:7118/api/campaigns
//	curl http://localhost:7118/api/campaigns/c0000
//	curl -N http://localhost:7118/api/campaigns/c0000/events
//	curl -O http://localhost:7118/api/campaigns/c0000/artifacts/results.jsonl
//
// Durability is the point: every lease decision is journaled and results
// land as a validated prefix, so killing the process mid-campaign (even
// SIGKILL) loses nothing: restart `attain serve` over the same -root and
// interrupted campaigns resume where they stopped, producing the same
// bytes an uninterrupted run would have.
func runServe(args []string) error {
	fs := newFlagSet("serve")
	listen := fs.String("listen", ":7118", "HTTP address to serve the API on")
	root := fs.String("root", "campaigns", "directory holding one subdirectory per campaign")
	workers := fs.Int("workers", 2, "in-process grid workers per campaign")
	slots := fs.Int("slots", 2, "parallel scenarios per worker (a spec's \"workers\" knob overrides)")
	lease := fs.Duration("lease", 0, "lease TTL before an unresponsive worker's scenarios requeue (0 = grid default)")
	steal := fs.Int("steal", 0, "work-steal budget per scenario (0 = grid default, negative disables stealing)")
	batch := fs.Int("batch", 0, "results per RESULT_BATCH frame (0 = grid default, negative sends one result per frame)")
	lean := fs.Bool("lean", false, "drop outcomes from coordinator memory once recorded (flat memory on huge campaigns)")
	debugAddr := debugFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := startDebug(*debugAddr); err != nil {
		return err
	}

	svc, err := gridsvc.New(gridsvc.Config{
		Root: *root,
		Options: gridsvc.Options{
			Workers:      *workers,
			Slots:        *slots,
			LeaseTTL:     *lease,
			StealBudget:  *steal,
			BatchResults: *batch,
			DropOutcomes: *lean,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	fmt.Printf("serving on http://%s\n", ln.Addr())

	ctx, stop := interruptContext()
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful stop: abort running campaigns crash-equivalently (they
	// resume on the next start) and drain in-flight HTTP requests.
	fmt.Println("shutting down: aborting running campaigns (resumable)")
	svc.Shutdown()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
