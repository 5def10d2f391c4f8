package grid

import (
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"attain/internal/campaign"
	"attain/internal/telemetry"
)

// WorkerConfig tunes a grid worker.
type WorkerConfig struct {
	// Name identifies the worker to the coordinator (default: the local
	// address of the first connection). The name must stay stable across
	// reconnects — it is the key under which the coordinator re-adopts
	// leases when RunLoop re-HELLOs with Resume.
	Name string
	// Slots is how many scenarios execute at once (default 1). It does
	// not bound how many leases the worker holds: the coordinator may
	// grant more than Slots when scenarios are short (see refillTarget),
	// and the surplus waits in the worker's queue.
	Slots int
	// BatchResults > 1 batches completed scenarios into gzip-compressed
	// RESULT_BATCH frames instead of one RESULT frame per scenario. A
	// flush is due when that many results are batched, when a slot
	// finishes a scenario and finds no lease queued behind it (the
	// coordinator refills on results, so a result must not wait while its
	// slot idles), and at each heartbeat; it sends whatever is batched by
	// the time it runs. 0 or 1 keeps the per-scenario frames.
	BatchResults int
	// Reconnect is RunLoop's base backoff between reconnect attempts
	// (default 100 ms, doubling per failure up to 2 s).
	Reconnect time.Duration
	// Runner is the execution policy. Zero-valued Timeout/Retries/Backoff
	// adopt the campaign policy the coordinator sends in WELCOME, so a
	// bare worker behaves exactly like a single-process campaign slot;
	// Execute defaults to campaign.Execute.
	Runner campaign.RunnerConfig
	// Telemetry collects the worker-side grid counters (nil = disabled).
	Telemetry *telemetry.Telemetry
	// Progress, when set, receives one line per executed scenario.
	Progress io.Writer
}

// Worker connects to a coordinator, executes leased scenarios with the
// campaign runner policy, and streams results back. Leases wait in a FIFO
// that Slots goroutines drain, so the worker executes at most Slots
// scenarios at once however many it holds. State that must survive a
// reconnect — the worker's name, the queued and executing scenarios, and
// any results the dead connection failed to deliver — lives on the
// struct, so RunLoop can resume exactly where the lost connection left
// off.
type Worker struct {
	cfg WorkerConfig

	mu   sync.Mutex
	name string
	// fc is the live connection; nil while disconnected. Results finished
	// during a disconnect stash until the next flush.
	fc *frameConn
	// queue holds the leases no slot has started yet; busy is every index
	// held, queued or executing (what heartbeats claim). runner carries
	// the policy of the latest WELCOME.
	queue   []*Lease
	busy    map[int]bool
	runner  *campaign.Runner
	stopped bool
	wake    *sync.Cond // queue or stopped changed; tied to mu
	batch   []campaign.ScenarioResult
	stash   []campaign.ScenarioResult
	// flushDue asks the flusher goroutine for a flush. One pending request
	// covers every result batched before the flusher gets to it, which is
	// what folds the results of slots finishing microseconds apart into
	// one frame without a timer.
	flushDue chan struct{}

	ctrLeases     *telemetry.Counter
	ctrResults    *telemetry.Counter
	ctrBatches    *telemetry.Counter
	ctrHeartbeats *telemetry.Counter
	ctrReconnects *telemetry.Counter
}

// NewWorker builds a worker, applying config defaults.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	w := &Worker{
		cfg:           cfg,
		busy:          make(map[int]bool),
		ctrLeases:     cfg.Telemetry.Counter("grid.worker.leases_received"),
		ctrResults:    cfg.Telemetry.Counter("grid.worker.results_sent"),
		ctrBatches:    cfg.Telemetry.Counter("grid.worker.batches_sent"),
		ctrHeartbeats: cfg.Telemetry.Counter("grid.worker.heartbeats_sent"),
		ctrReconnects: cfg.Telemetry.Counter("grid.worker.reconnects"),
	}
	w.wake = sync.NewCond(&w.mu)
	w.flushDue = make(chan struct{}, 1)
	return w
}

// start launches the Slots goroutines that drain the lease queue and the
// flusher that sends their results, and returns the function that stops
// them: it drops whatever is still queued (undelivered work is the
// coordinator's to re-grant) and returns once the scenarios already
// executing have finished.
func (w *Worker) start(ctx context.Context) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1 + w.cfg.Slots)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-w.flushDue:
				w.flush()
			case <-quit:
				return
			}
		}
	}()
	for i := 0; i < w.cfg.Slots; i++ {
		go func() {
			defer wg.Done()
			w.slot(ctx)
		}()
	}
	return func() {
		w.mu.Lock()
		w.stopped = true
		for _, l := range w.queue {
			delete(w.busy, l.Scenario.Index)
		}
		w.queue = nil
		w.wake.Broadcast()
		w.mu.Unlock()
		close(quit)
		wg.Wait()
	}
}

// slot executes queued scenarios one at a time until the worker stops.
func (w *Worker) slot(ctx context.Context) {
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.stopped {
			w.wake.Wait()
		}
		if w.stopped {
			w.mu.Unlock()
			return
		}
		sc := w.queue[0].Scenario
		w.queue = w.queue[1:]
		runner := w.runner
		w.mu.Unlock()

		res := runner.RunScenario(ctx, sc)
		if w.cfg.Progress != nil {
			fmt.Fprintf(w.cfg.Progress, "%-7s %-40s %8s\n",
				res.Status, sc.Name, res.Duration.Round(time.Millisecond))
		}
		w.deliver(res)
	}
}

// enqueue hands a burst of leases to the slots. A scenario the worker
// already holds — a lease replayed across a reconnect, or a steal grant
// landing on the original holder — is dropped: running it twice here wins
// nothing.
func (w *Worker) enqueue(leases []*Lease) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, l := range leases {
		if w.busy[l.Scenario.Index] {
			continue
		}
		w.busy[l.Scenario.Index] = true
		w.queue = append(w.queue, l)
		w.ctrLeases.Inc()
		if w.cfg.Telemetry.Enabled() {
			w.cfg.Telemetry.Emit(telemetry.Event{
				Layer: telemetry.LayerGrid, Kind: telemetry.KindLease,
				Node: w.name, Detail: fmt.Sprintf("%s grant=%d steal=%v", l.Scenario.Name, l.Grant, l.Steal)})
		}
	}
	w.wake.Broadcast()
}

// Run dials the coordinator and works until the campaign completes (DONE),
// the coordinator says BYE, or ctx is cancelled. A clean campaign end
// returns nil; transport failures return the underlying error so callers
// can decide whether to reconnect (or use RunLoop, which does).
func (w *Worker) Run(ctx context.Context, addr string) error {
	defer w.start(ctx)()
	_, err := w.run(ctx, addr, false)
	return err
}

// RunLoop runs the worker with automatic reconnect: when the coordinator
// connection is lost, the worker re-dials with backoff and re-HELLOs with
// Resume set, so the coordinator transfers the previous connection's
// leases instead of letting them expire; heartbeats then re-claim every
// queued or executing scenario and stashed results are re-delivered. The
// slots keep draining the queue while the connection is down. Returns nil
// when the campaign completes, the coordinator's rejection for terminal
// handshake failures, or ctx's error once cancelled.
//
// RunLoop re-dials until ctx is cancelled: over TCP alone a worker cannot
// tell a coordinator that finished the campaign and closed its port from
// one that is restarting. A worker that has not been welcomed by the time
// the campaign ends never sees DONE, so the caller must cancel ctx once
// its coordinator's Serve returns. Run is the call that ends on a closed
// port.
func (w *Worker) RunLoop(ctx context.Context, addr string) error {
	defer w.start(ctx)()
	backoff := w.cfg.Reconnect
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	wait := backoff
	resume := false
	for {
		done, err := w.run(ctx, addr, resume)
		if done {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		resume = true
		w.ctrReconnects.Inc()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
		if wait *= 2; wait > 2*time.Second {
			wait = 2 * time.Second
		}
	}
}

// run works one connection. done reports that the campaign is over (or
// the handshake was rejected outright) and reconnecting is pointless;
// done=false with a non-nil error marks a transport failure a RunLoop
// retry may recover from.
func (w *Worker) run(ctx context.Context, addr string, resume bool) (done bool, err error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return false, fmt.Errorf("grid: dial coordinator %s: %w", addr, err)
	}
	fc := newFrameConn(conn, w.cfg.Telemetry)
	defer fc.close()

	w.mu.Lock()
	if w.name == "" {
		w.name = w.cfg.Name
		if w.name == "" {
			w.name = conn.LocalAddr().String()
		}
	}
	name := w.name
	w.mu.Unlock()

	if err := fc.write(&Frame{Type: FrameHello, Hello: &Hello{
		Proto: ProtoVersion, Worker: name, Slots: w.cfg.Slots, Resume: resume}}); err != nil {
		return false, err
	}
	f, err := fc.read()
	if err != nil {
		return false, fmt.Errorf("grid: handshake: %w", err)
	}
	switch f.Type {
	case FrameWelcome:
	case FrameDone:
		return true, nil // campaign already over
	case FrameBye:
		reason := ""
		if f.Bye != nil {
			reason = f.Bye.Reason
		}
		return true, fmt.Errorf("grid: coordinator rejected worker: %s", reason)
	default:
		return true, fmt.Errorf("grid: expected welcome, got %s", f.Type)
	}
	welcome := f.Welcome
	if welcome == nil || welcome.Proto != ProtoVersion {
		return true, fmt.Errorf("grid: protocol mismatch in welcome")
	}

	// Adopt the connection and the campaign's policy, then re-deliver
	// anything the previous connection failed to send.
	w.mu.Lock()
	w.fc = fc
	w.runner = campaign.NewRunner(w.applyPolicy(welcome))
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		if w.fc == fc {
			w.fc = nil
		}
		w.mu.Unlock()
	}()
	w.flush()

	heartbeat := time.Duration(welcome.HeartbeatMS) * time.Millisecond
	if heartbeat <= 0 {
		heartbeat = DefaultLeaseTTL / 3
	}

	// The heartbeat loop doubles as the cancellation watcher: on ctx
	// cancellation it sends BYE and closes the connection, unblocking the
	// read loop. Each tick also flushes the result batch, bounding batch
	// latency by the heartbeat interval.
	hbCtx, stopHB := context.WithCancel(context.Background())
	defer stopHB()
	go func() {
		ticker := time.NewTicker(heartbeat)
		defer ticker.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-ctx.Done():
				fc.write(&Frame{Type: FrameBye, Bye: &Bye{Reason: "worker cancelled"}})
				fc.close()
				return
			case <-ticker.C:
				w.flush()
				w.mu.Lock()
				idxs := make([]int, 0, len(w.busy))
				for idx := range w.busy {
					idxs = append(idxs, idx)
				}
				w.mu.Unlock()
				sort.Ints(idxs)
				if fc.write(&Frame{Type: FrameHeartbeat, Heartbeat: &Heartbeat{Busy: idxs}}) == nil {
					w.ctrHeartbeats.Inc()
				}
			}
		}
	}()

	// Leases are queued a burst at a time: the coordinator writes a sweep's
	// grants to one worker in one go, and handing them to the slots one by
	// one would let a slot outrun the decoder, find the queue empty after
	// every scenario, and flush result batches of one or two.
	var burst []*Lease
	for {
		f, err := fc.read()
		if err != nil {
			if ctx.Err() != nil {
				return true, ctx.Err()
			}
			return false, fmt.Errorf("grid: coordinator connection: %w", err)
		}
		switch f.Type {
		case FrameLease:
			if f.Lease != nil {
				burst = append(burst, f.Lease)
			}
		case FrameDone:
			w.flush()
			fc.write(&Frame{Type: FrameBye, Bye: &Bye{Reason: "campaign complete"}})
			return true, nil
		case FrameBye:
			return true, nil
		default:
			// Ignore unknown frames for forward compatibility.
		}
		if len(burst) > 0 && !fc.buffered() {
			w.enqueue(burst)
			burst = burst[:0]
		}
	}
}

// deliver hands one finished scenario to the coordinator: batched when
// batching is on (the flusher sends it), as a single RESULT frame
// otherwise. Results that cannot be sent (no connection, write failure)
// stash for the next flush — after a reconnect, nothing is lost.
func (w *Worker) deliver(res campaign.ScenarioResult) {
	w.mu.Lock()
	delete(w.busy, res.Scenario.Index)
	if w.cfg.BatchResults > 1 {
		w.batch = append(w.batch, res)
		// A flush is due on a full batch — or when this slot has nothing
		// queued to move on to: the coordinator counts the lease until its
		// result lands and refills only then, so holding the result back
		// would idle the slot until a sibling finishes or the next
		// heartbeat.
		due := len(w.batch) >= w.cfg.BatchResults || len(w.queue) == 0
		w.mu.Unlock()
		if due {
			select {
			case w.flushDue <- struct{}{}:
			default: // already requested
			}
		}
		return
	}
	fc := w.fc
	w.mu.Unlock()
	if fc == nil || fc.write(&Frame{Type: FrameResult, Result: &Result{Result: res}}) != nil {
		w.mu.Lock()
		w.stash = append(w.stash, res)
		w.mu.Unlock()
		return
	}
	w.ctrResults.Inc()
	w.emitResult(res)
}

// flush drains every undelivered result — the reconnect stash plus the
// current batch — over the live connection, re-stashing whatever fails.
func (w *Worker) flush() {
	w.mu.Lock()
	fc := w.fc
	pending := w.stash
	w.stash = nil
	pending = append(pending, w.batch...)
	w.batch = nil
	w.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	if fc == nil {
		w.restash(pending)
		return
	}
	if w.cfg.BatchResults > 1 {
		b, err := EncodeResultBatch(pending)
		if err == nil {
			err = fc.write(&Frame{Type: FrameResultBatch, ResultBatch: b})
		}
		if err != nil {
			w.restash(pending)
			return
		}
		w.ctrBatches.Inc()
		w.ctrResults.Add(uint64(len(pending)))
		for i := range pending {
			w.emitResult(pending[i])
		}
		return
	}
	for i := range pending {
		if fc.write(&Frame{Type: FrameResult, Result: &Result{Result: pending[i]}}) != nil {
			w.restash(pending[i:])
			return
		}
		w.ctrResults.Inc()
		w.emitResult(pending[i])
	}
}

// restash returns undelivered results to the front of the stash.
func (w *Worker) restash(pending []campaign.ScenarioResult) {
	w.mu.Lock()
	w.stash = append(pending, w.stash...)
	w.mu.Unlock()
}

func (w *Worker) emitResult(res campaign.ScenarioResult) {
	if !w.cfg.Telemetry.Enabled() {
		return
	}
	w.cfg.Telemetry.Emit(telemetry.Event{
		Layer: telemetry.LayerGrid, Kind: telemetry.KindResult,
		Node: w.name, Detail: fmt.Sprintf("%s status=%s", res.Scenario.Name, res.Status)})
}

// applyPolicy merges the campaign policy from WELCOME under the worker's
// own config: explicit worker flags win, unset knobs follow the campaign.
func (w *Worker) applyPolicy(welcome *Welcome) campaign.RunnerConfig {
	cfg := w.cfg.Runner
	if cfg.Timeout <= 0 && welcome.TimeoutMS > 0 {
		cfg.Timeout = time.Duration(welcome.TimeoutMS) * time.Millisecond
	}
	if cfg.Retries <= 0 && welcome.Retries > 0 {
		cfg.Retries = welcome.Retries
	}
	if cfg.Backoff <= 0 && welcome.BackoffMS > 0 {
		cfg.Backoff = time.Duration(welcome.BackoffMS) * time.Millisecond
	}
	return cfg
}
