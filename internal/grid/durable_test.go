package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"attain/internal/campaign"
	"attain/internal/telemetry"
)

// dialRawHello is dialRaw with full control over the HELLO frame, for
// exercising the Resume handshake by hand.
func dialRawHello(t *testing.T, addr string, hello *Hello) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFrameConn(conn, nil)
	if err := fc.write(&Frame{Type: FrameHello, Hello: hello}); err != nil {
		t.Fatal(err)
	}
	f, err := fc.read()
	if err != nil || f.Type != FrameWelcome {
		t.Fatalf("handshake: frame=%v err=%v", f, err)
	}
	return &rawClient{t: t, fc: fc}
}

// sendResult executes the leased scenario with the deterministic test
// exec and returns the result over the wire, as a real worker would.
func (rc *rawClient) sendResult(lease *Lease) {
	rc.t.Helper()
	out, err := gridExec(context.Background(), lease.Scenario)
	if err != nil {
		rc.t.Fatal(err)
	}
	res := campaign.ScenarioResult{
		Scenario: lease.Scenario, Outcome: out,
		Status: campaign.StatusOK, Attempts: 1,
	}
	if err := rc.fc.write(&Frame{Type: FrameResult, Result: &Result{Result: res}}); err != nil {
		rc.t.Fatalf("send result: %v", err)
	}
}

func (rc *rawClient) heartbeat(busy []int) {
	rc.t.Helper()
	if err := rc.fc.write(&Frame{Type: FrameHeartbeat, Heartbeat: &Heartbeat{Busy: busy}}); err != nil {
		rc.t.Fatalf("send heartbeat: %v", err)
	}
}

// waitCounter polls the telemetry snapshot until name reaches min.
func waitCounter(t *testing.T, tel *telemetry.Telemetry, name string, min uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tel.Snapshot()[name] >= min {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d after 5s, want >= %d", name, tel.Snapshot()[name], min)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResultBatchRoundTrip pins the gzip batch codec: encode/decode is
// lossless, and a tampered count or torn payload is rejected.
func TestResultBatchRoundTrip(t *testing.T) {
	scenarios := testMatrix(21)[:5]
	results := make([]campaign.ScenarioResult, 0, len(scenarios))
	for _, sc := range scenarios {
		out, err := gridExec(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, campaign.ScenarioResult{
			Scenario: sc, Outcome: out, Status: campaign.StatusOK, Attempts: 1,
		})
	}
	batch, err := EncodeResultBatch(results)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Count != len(results) {
		t.Fatalf("batch count = %d, want %d", batch.Count, len(results))
	}
	decoded, err := batch.Decode()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(results)
	got, _ := json.Marshal(decoded)
	if !bytes.Equal(want, got) {
		t.Errorf("round trip diverges:\n--- in\n%s\n--- out\n%s", want, got)
	}

	// A count mismatch (torn batch) must be rejected.
	tampered := &ResultBatch{Count: batch.Count + 1, Records: batch.Records}
	if _, err := tampered.Decode(); err == nil {
		t.Error("decode accepted a batch with a wrong count")
	}
	// So must a corrupted payload.
	torn := &ResultBatch{Count: batch.Count, Records: batch.Records[:len(batch.Records)/2]}
	if _, err := torn.Decode(); err == nil {
		t.Error("decode accepted a truncated gzip payload")
	}
}

// TestGridBatchedResultsMatchSingleProcess re-runs the byte-identity
// acceptance check with result batching on: gzip RESULT_BATCH frames must
// land the exact same artifacts as per-scenario RESULT frames and as a
// single-process run.
func TestGridBatchedResultsMatchSingleProcess(t *testing.T) {
	scenarios := testMatrix(42)

	singleDir := t.TempDir()
	singleStore, err := campaign.NewStore(singleDir)
	if err != nil {
		t.Fatal(err)
	}
	runner := campaign.NewRunner(campaign.RunnerConfig{
		Workers: 4, Execute: gridExec, Store: singleStore,
	})
	if _, err := runner.Run(context.Background(), scenarios); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New(telemetry.Options{})
	gridDir := t.TempDir()
	gridStore, err := campaign.NewStore(gridDir)
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunLocal(context.Background(), LocalConfig{
		Workers: 3,
		Coordinator: CoordinatorConfig{
			Campaign:  "batch-test",
			Scenarios: scenarios,
			Store:     gridStore,
			LeaseTTL:  2 * time.Second,
		},
		Worker: WorkerConfig{
			Slots:        2,
			BatchResults: 4,
			Runner:       campaign.RunnerConfig{Execute: gridExec},
			Telemetry:    tel,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.Failed(); len(failed) != 0 {
		t.Fatalf("grid campaign had failures: %v", failed)
	}
	if single, grid := canonicalResults(t, singleDir), canonicalResults(t, gridDir); !bytes.Equal(single, grid) {
		t.Errorf("results.jsonl diverges with batching:\n--- single\n%s\n--- grid\n%s", single, grid)
	}
	snap := tel.Snapshot()
	if snap["grid.worker.batches_sent"] < 1 {
		t.Errorf("batches_sent = %d, want >= 1 (batching never engaged)", snap["grid.worker.batches_sent"])
	}
	if snap["grid.worker.results_sent"] != uint64(len(scenarios)) {
		t.Errorf("results_sent = %d, want %d", snap["grid.worker.results_sent"], len(scenarios))
	}
}

// TestGridReconnectReadoptsLeases is the reconnect fix: a worker that
// re-HELLOs under its previous name with Resume set takes its leases with
// it — nothing is requeued, nothing waits for a heartbeat timeout, and the
// results it then delivers are accepted as the original grants.
func TestGridReconnectReadoptsLeases(t *testing.T) {
	scenarios := testMatrix(23)[:2]
	tel := telemetry.New(telemetry.Options{})
	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios: scenarios,
		LeaseTTL:  10 * time.Second, // expiry must play no part
		Telemetry: tel,
	})

	first := dialRaw(t, addr, "wobbly", 2)
	leases := first.awaitLeases(2)

	// The worker's connection drops silently (NAT timeout, say): the
	// coordinator hasn't noticed when the worker dials back in.
	second := dialRawHello(t, addr, &Hello{
		Proto: ProtoVersion, Worker: "wobbly", Slots: 2, Resume: true})
	defer second.fc.close()

	if got := tel.Snapshot()["grid.leases_adopted"]; got != 2 {
		t.Fatalf("leases_adopted = %d, want 2", got)
	}
	// Heartbeats on the new connection keep the transferred leases alive,
	// and results on it complete the original grants.
	second.heartbeat([]int{leases[0].Scenario.Index, leases[1].Scenario.Index})
	second.sendResult(leases[0])
	second.sendResult(leases[1])

	report, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range report.Results {
		if res.Status != campaign.StatusOK {
			t.Errorf("scenario %d = %s (%s), want ok", i, res.Status, res.Err)
		}
	}
	snap := tel.Snapshot()
	if snap["grid.scenarios_requeued"] != 0 {
		t.Errorf("scenarios_requeued = %d, want 0 (reconnect must not requeue)", snap["grid.scenarios_requeued"])
	}
	if snap["grid.scenarios_leased"] != uint64(len(scenarios)) {
		t.Errorf("scenarios_leased = %d, want %d (each scenario granted once)",
			snap["grid.scenarios_leased"], len(scenarios))
	}
}

// TestGridHeartbeatReadoptsAfterRequeue covers the other re-adopt path: if
// the coordinator already noticed the death and requeued the scenarios, a
// reconnecting worker's heartbeat naming them as busy re-claims them from
// the pending queue instead of letting them re-run elsewhere.
func TestGridHeartbeatReadoptsAfterRequeue(t *testing.T) {
	scenarios := testMatrix(27)[:2]
	tel := telemetry.New(telemetry.Options{})
	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios: scenarios,
		LeaseTTL:  10 * time.Second,
		Backoff:   time.Hour, // requeued scenarios stay pending: only adoption can finish them
		Telemetry: tel,
	})

	first := dialRaw(t, addr, "wobbly", 2)
	leases := first.awaitLeases(2)
	first.fc.close() // loud death: coordinator requeues immediately
	waitCounter(t, tel, "grid.scenarios_requeued", 2)

	second := dialRawHello(t, addr, &Hello{
		Proto: ProtoVersion, Worker: "wobbly", Slots: 2, Resume: true})
	defer second.fc.close()
	second.heartbeat([]int{leases[0].Scenario.Index, leases[1].Scenario.Index})
	waitCounter(t, tel, "grid.leases_adopted", 2)
	second.sendResult(leases[0])
	second.sendResult(leases[1])

	report, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range report.Results {
		if res.Status != campaign.StatusOK {
			t.Errorf("scenario %d = %s (%s), want ok", i, res.Status, res.Err)
		}
	}
}

// TestGridStealDrainsStalledWorker enables work stealing and verifies an
// idle worker takes over a stalled worker's scenario without any lease
// expiring or requeueing: the steal alone drains the straggler.
func TestGridStealDrainsStalledWorker(t *testing.T) {
	scenarios := testMatrix(29)[:4]
	tel := telemetry.New(telemetry.Options{})
	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios:   scenarios,
		LeaseTTL:    time.Minute, // far beyond the test: expiry cannot rescue
		StealBudget: 2,
		StealAfter:  40 * time.Millisecond,
		Telemetry:   tel,
	})

	// The straggler takes one scenario and sits on it forever.
	stalled := dialRaw(t, addr, "a-stalled", 1)
	stalled.awaitLeases(1)
	defer stalled.fc.close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := NewWorker(WorkerConfig{
			Name: "b-healthy", Slots: 2,
			Runner: campaign.RunnerConfig{Execute: gridExec},
		})
		_ = w.Run(ctx, addr)
	}()

	report, err := wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range report.Results {
		if res.Status != campaign.StatusOK {
			t.Errorf("scenario %d = %s (%s), want ok", i, res.Status, res.Err)
		}
	}
	snap := tel.Snapshot()
	if snap["grid.scenarios_stolen"] < 1 {
		t.Errorf("scenarios_stolen = %d, want >= 1", snap["grid.scenarios_stolen"])
	}
	if snap["grid.lease_expiries"] != 0 {
		t.Errorf("lease_expiries = %d, want 0 (steal, not expiry, must drain the straggler)", snap["grid.lease_expiries"])
	}
	if snap["grid.scenarios_requeued"] != 0 {
		t.Errorf("scenarios_requeued = %d, want 0", snap["grid.scenarios_requeued"])
	}
}

// TestGridStealLateResultDeduped races a steal against the original
// holder's late RESULT: the first result wins, the loser is counted as a
// duplicate, and the store keeps exactly one record per scenario.
func TestGridStealLateResultDeduped(t *testing.T) {
	scenarios := testMatrix(31)[:3]
	tel := telemetry.New(telemetry.Options{})
	dir := t.TempDir()
	store, err := campaign.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios:   scenarios,
		Store:       store,
		LeaseTTL:    time.Minute,
		StealBudget: 1,
		StealAfter:  30 * time.Millisecond,
		Telemetry:   tel,
	})

	// slow holds scenario 0 and won't report until after it's stolen.
	slow := dialRaw(t, addr, "a-slow", 1)
	slowLease := slow.awaitLeases(1)[0]
	defer slow.fc.close()

	// thief takes the other two scenarios, finishes one, and — with the
	// pending queue empty and a slot free — gets the steal grant for
	// scenario 0.
	thief := dialRaw(t, addr, "b-thief", 2)
	thiefLeases := thief.awaitLeases(2)
	defer thief.fc.close()
	thief.sendResult(thiefLeases[0])
	stolen := thief.awaitLeases(1)[0]
	if !stolen.Steal {
		t.Fatalf("expected a steal grant, got lease %+v", stolen)
	}
	if stolen.Scenario.Index != slowLease.Scenario.Index {
		t.Fatalf("stole scenario %d, want the stalled scenario %d", stolen.Scenario.Index, slowLease.Scenario.Index)
	}

	// The thief's result lands first and wins...
	thief.sendResult(stolen)
	waitCounter(t, tel, "grid.scenarios_completed", 2)
	// ...then the original holder's late result arrives and is dropped.
	slow.sendResult(slowLease)
	waitCounter(t, tel, "grid.results_duplicate", 1)

	// Finish the campaign.
	thief.sendResult(thiefLeases[1])
	report, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range report.Results {
		if res.Status != campaign.StatusOK {
			t.Errorf("scenario %d = %s (%s), want ok", i, res.Status, res.Err)
		}
	}
	canon := canonicalResults(t, dir)
	if got := bytes.Count(canon, []byte("\n")); got != len(scenarios) {
		t.Errorf("results.jsonl has %d records, want %d (dedup must keep one per scenario)", got, len(scenarios))
	}
	// At least the scenario-0 steal happened; the freed slow worker may
	// legitimately steal the thief's last lease too, so >= not ==.
	if got := tel.Snapshot()["grid.scenarios_stolen"]; got < 1 {
		t.Errorf("scenarios_stolen = %d, want >= 1", got)
	}
}

// TestCoordinatorRestoreSkipsDone seeds a coordinator with restored state
// and verifies already-recorded scenarios are not re-executed while the
// rest run normally — the in-memory half of checkpoint/restart.
func TestCoordinatorRestoreSkipsDone(t *testing.T) {
	scenarios := testMatrix(33)[:4]
	var mu sync.Mutex
	executed := map[int]bool{}
	exec := func(c context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		mu.Lock()
		executed[sc.Index] = true
		mu.Unlock()
		return gridExec(c, sc)
	}
	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios: scenarios,
		LeaseTTL:  2 * time.Second,
		Restore: &Restore{
			Done: map[int]campaign.Status{0: campaign.StatusOK, 1: campaign.StatusFailed},
		},
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := NewWorker(WorkerConfig{Slots: 2, Runner: campaign.RunnerConfig{Execute: exec}})
		_ = w.Run(ctx, addr)
	}()
	report, err := wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != len(scenarios) {
		t.Fatalf("report has %d results, want %d", len(report.Results), len(scenarios))
	}
	if report.Results[0].Status != campaign.StatusOK || report.Results[1].Status != campaign.StatusFailed {
		t.Errorf("restored statuses = %s/%s, want ok/failed",
			report.Results[0].Status, report.Results[1].Status)
	}
	mu.Lock()
	defer mu.Unlock()
	if executed[0] || executed[1] {
		t.Errorf("restored scenarios re-executed: %v", executed)
	}
	if !executed[2] || !executed[3] {
		t.Errorf("live scenarios not executed: %v", executed)
	}
}

// TestCoordinatorRestoreAllDone restarts a campaign whose every scenario
// is already recorded: Serve must complete immediately, with zero workers
// ever connecting.
func TestCoordinatorRestoreAllDone(t *testing.T) {
	scenarios := testMatrix(35)[:2]
	done := map[int]campaign.Status{}
	for i := range scenarios {
		done[i] = campaign.StatusOK
	}
	ctx := context.Background()
	_, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios: scenarios,
		LeaseTTL:  time.Second,
		Restore:   &Restore{Done: done},
	})
	report, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range report.Results {
		if res.Status != campaign.StatusOK {
			t.Errorf("scenario %d = %s, want ok", i, res.Status)
		}
	}
}

// TestCoordinatorAbortLeavesResumablePrefix aborts a campaign mid-run and
// verifies the store holds a clean resumable prefix — no skip records, no
// aggregates — exactly what ResumeStore expects after a crash.
func TestCoordinatorAbortLeavesResumablePrefix(t *testing.T) {
	scenarios := testMatrix(37)[:6]
	dir := t.TempDir()
	store, err := campaign.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan struct{}, len(scenarios))
	gate := make(chan struct{})
	exec := func(c context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		if sc.Index > 0 {
			<-gate // hold everything but scenario 0 until the abort
		}
		defer func() { firstDone <- struct{}{} }()
		return gridExec(c, sc)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(CoordinatorConfig{
		Scenarios: scenarios, Store: store, LeaseTTL: 2 * time.Second,
	})
	serveErr := make(chan error, 1)
	go func() {
		_, err := co.Serve(context.Background(), ln)
		serveErr <- err
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := NewWorker(WorkerConfig{Slots: 1, Runner: campaign.RunnerConfig{Execute: exec}})
		_ = w.Run(ctx, addrOf(ln))
	}()
	<-firstDone // scenario 0 recorded
	// Give the store's Put a beat to land, then abort mid-campaign.
	deadline := time.Now().Add(5 * time.Second)
	for {
		data := readArtifact(t, dir, campaign.ResultsFile)
		if bytes.Count(data, []byte("\n")) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scenario 0 never reached results.jsonl")
		}
		time.Sleep(5 * time.Millisecond)
	}
	co.Abort()
	if err := <-serveErr; err != ErrAborted {
		t.Fatalf("Serve returned %v, want ErrAborted", err)
	}
	close(gate)
	cancel()
	wg.Wait()

	data := readArtifact(t, dir, campaign.ResultsFile)
	if bytes.Contains(data, []byte(`"skipped"`)) {
		t.Error("aborted store contains skip records — abort must be crash-equivalent")
	}
	// The prefix must be resumable and the remaining scenarios re-runnable.
	resumed, done, err := campaign.ResumeStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(done); n < 1 || n >= len(scenarios) {
		t.Fatalf("resume watermark = %d, want in [1, %d)", n, len(scenarios))
	}
	resumed.Abort()
}

func addrOf(ln net.Listener) string { return ln.Addr().String() }

// TestGridRunLoopCompletesAndStatusReports drives a campaign through
// Worker.RunLoop (the reconnect-capable entry point) and polls the
// coordinator's Status snapshot while it runs: worker rows must appear
// while connected, and the final snapshot must show the campaign
// finished with every scenario done.
func TestGridRunLoopCompletesAndStatusReports(t *testing.T) {
	scenarios := testMatrix(11)
	dir := t.TempDir()
	store, err := campaign.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(CoordinatorConfig{
		Campaign:  "status-test",
		Scenarios: scenarios,
		Store:     store,
		LeaseTTL:  2 * time.Second,
	})
	if st := co.Status(); st.Total != len(scenarios) || st.Done != 0 || st.Finished {
		t.Fatalf("pre-serve status = %+v, want %d total, nothing done", st, len(scenarios))
	}
	type outcome struct {
		report *campaign.Report
		err    error
	}
	served := make(chan outcome, 1)
	go func() {
		rep, err := co.Serve(context.Background(), ln)
		served <- outcome{rep, err}
	}()

	// As gridsvc does, cancel the workers once Serve returns: RunLoop
	// re-dials a closed port until cancelled.
	wctx, cancelWorkers := context.WithCancel(context.Background())
	defer cancelWorkers()
	workers := make([]*Worker, 2)
	errc := make([]chan error, len(workers))
	for i := range workers {
		workers[i] = NewWorker(WorkerConfig{
			Slots:  2,
			Runner: campaign.RunnerConfig{Execute: gridExec},
		})
		errc[i] = make(chan error, 1)
		go func(w *Worker, errc chan<- error) { errc <- w.RunLoop(wctx, addrOf(ln)) }(workers[i], errc[i])
	}

	// While the campaign runs, the snapshot exposes connected workers and
	// queue depths; poll until a worker row shows up (or the run ends).
	sawWorkers := false
	for !sawWorkers {
		st := co.Status()
		if len(st.Workers) > 0 {
			sawWorkers = true
			for _, ws := range st.Workers {
				if ws.Slots != 2 {
					t.Errorf("worker %s slots = %d, want 2", ws.Name, ws.Slots)
				}
			}
		}
		if st.Finished {
			break
		}
		time.Sleep(time.Millisecond)
	}

	var o outcome
	select {
	case o = <-served:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not finish")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if len(o.report.Results) != len(scenarios) {
		t.Fatalf("report has %d results, want %d", len(o.report.Results), len(scenarios))
	}
	st := co.Status()
	if !st.Finished || st.Done != len(scenarios) || st.Pending != 0 || st.Leased != 0 {
		t.Errorf("final status = %+v, want finished with %d done", st, len(scenarios))
	}
	// A worker the coordinator welcomed has DONE in its socket by the time
	// Serve returns, and RunLoop must return nil for it. A worker that
	// never got in before its peer finished the campaign re-dials the
	// closed port until cancelled. So: snapshot who was welcomed, collect
	// their nil returns, then cancel the rest (cancelling first would race
	// DONE), which may end on the cancellation or on a late DONE.
	welcomed := make([]bool, len(workers))
	for i, w := range workers {
		w.mu.Lock()
		welcomed[i] = w.runner != nil
		w.mu.Unlock()
	}
	collect := func(i int) error {
		select {
		case err := <-errc[i]:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d (welcomed=%v): RunLoop did not return", i, welcomed[i])
			return nil
		}
	}
	for i := range workers {
		if welcomed[i] {
			if err := collect(i); err != nil {
				t.Errorf("worker %d: RunLoop returned %v, want nil after DONE", i, err)
			}
		}
	}
	cancelWorkers()
	for i := range workers {
		if !welcomed[i] {
			if err := collect(i); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %d never welcomed: RunLoop returned %v, want nil or context.Canceled", i, err)
			}
		}
	}
	if !welcomed[0] && !welcomed[1] {
		t.Error("no worker was welcomed, yet the campaign finished")
	}
}

// TestWorkerFlushWithoutConnRestashes pins the stash contract: a result
// delivered while disconnected is kept (front of the stash) rather than
// dropped, so a later reconnect flush can still deliver it.
func TestWorkerFlushWithoutConnRestashes(t *testing.T) {
	w := NewWorker(WorkerConfig{BatchResults: 4})
	res := campaign.ScenarioResult{
		Scenario: campaign.Scenario{Index: 3, Name: "stash-me"},
		Status:   campaign.StatusOK,
	}
	w.deliver(res) // nothing queued behind it: a flush is due
	w.flush()      // (the flusher's part) no connection: restashes
	w.mu.Lock()
	stashed := len(w.stash)
	batched := len(w.batch)
	w.mu.Unlock()
	if stashed != 1 || batched != 0 {
		t.Fatalf("stash=%d batch=%d after disconnected deliver, want 1/0", stashed, batched)
	}
	// A second disconnected deliver merges behind the first: the stash
	// keeps completion order, so redelivery replays results as produced.
	w.deliver(campaign.ScenarioResult{
		Scenario: campaign.Scenario{Index: 4, Name: "stash-too"},
		Status:   campaign.StatusOK,
	})
	w.flush()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.stash) != 2 || w.stash[0].Scenario.Index != 3 || w.stash[1].Scenario.Index != 4 {
		t.Fatalf("stash indexes = [%d %d], want [3 4] (completion order)",
			w.stash[0].Scenario.Index, w.stash[1].Scenario.Index)
	}
}
