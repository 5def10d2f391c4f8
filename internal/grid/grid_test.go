package grid

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"attain/internal/campaign"
	"attain/internal/dataplane"
	"attain/internal/experiment"
	"attain/internal/monitor"
	"attain/internal/telemetry"
)

// gridExec is a deterministic stand-in for campaign.Execute: outcomes are
// derived purely from the scenario seed, the way a real run's stochastic
// rules would be, so equal-seed runs — single-process or distributed —
// must produce identical artifacts.
func gridExec(ctx context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
	rng := rand.New(rand.NewSource(sc.Seed))
	if sc.Kind == campaign.KindInterruption {
		return &campaign.Outcome{Interruption: &experiment.InterruptionResult{
			Profile:        sc.Profile,
			FailMode:       sc.FailMode,
			ExtToExtBefore: true,
			IntToExtBefore: true,
			ExtToInt:       rng.Intn(2) == 0,
			IntToExtAfter:  rng.Intn(2) == 0,
			FinalState:     "sigma3",
			S2Disconnected: rng.Intn(2) == 0,
		}}, nil
	}
	out := &campaign.Outcome{Suppression: &experiment.SuppressionResult{
		Profile:  sc.Profile,
		Attacked: sc.Attack != campaign.AttackBaseline,
	}}
	for i := 0; i < 4; i++ {
		out.Suppression.Iperf.Trials = append(out.Suppression.Iperf.Trials, dataplane.IperfResult{
			Connected:  true,
			BytesAcked: uint64(1_000_000 + rng.Intn(4_000_000)),
			Elapsed:    5 * time.Second,
		})
		out.Suppression.Ping.Trials = append(out.Suppression.Ping.Trials, monitor.PingTrial{
			Seq: i + 1, OK: true, RTT: time.Duration(1+rng.Intn(20)) * time.Millisecond,
		})
	}
	out.Suppression.FlowModsDropped = uint64(rng.Intn(100))
	return out, nil
}

func readArtifact(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func canonicalResults(t *testing.T, dir string) []byte {
	t.Helper()
	canon, err := campaign.CanonicalJSONL(readArtifact(t, dir, campaign.ResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// testMatrix is the shared scenario set: both kinds, all profiles, two
// trials — 24 scenarios.
func testMatrix(seed int64) []campaign.Scenario {
	return campaign.Matrix{Seed: seed, Trials: 2}.Expand()
}

// TestGridArtifactsMatchSingleProcess is the acceptance guard: a grid run
// sharded over three TCP workers must produce results.jsonl (modulo
// wall-clock fields) and CSV aggregates byte-identical to a single-process
// campaign with the same seed.
func TestGridArtifactsMatchSingleProcess(t *testing.T) {
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

	gridDir := t.TempDir()
	gridStore, err := campaign.NewStore(gridDir)
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunLocal(context.Background(), LocalConfig{
		Workers: 3,
		Coordinator: CoordinatorConfig{
			Campaign:  "grid-test",
			Scenarios: scenarios,
			Store:     gridStore,
			LeaseTTL:  2 * time.Second,
		},
		Worker: WorkerConfig{
			Slots:  2,
			Runner: campaign.RunnerConfig{Execute: gridExec},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.Failed(); len(failed) != 0 {
		t.Fatalf("grid campaign had failures: %v", failed)
	}

	if single, grid := canonicalResults(t, singleDir), canonicalResults(t, gridDir); !bytes.Equal(single, grid) {
		t.Errorf("results.jsonl diverges between single-process and grid runs:\n--- single\n%s\n--- grid\n%s", single, grid)
	}
	for _, name := range []string{campaign.Fig11File, campaign.TableIIFile} {
		single := readArtifact(t, singleDir, name)
		grid := readArtifact(t, gridDir, name)
		if !bytes.Equal(single, grid) {
			t.Errorf("%s diverges between single-process and grid runs:\n--- single\n%s\n--- grid\n%s", name, single, grid)
		}
	}
}

// startCoordinator runs a coordinator on loopback and returns its address
// plus a wait func for the final report.
func startCoordinator(t *testing.T, ctx context.Context, cfg CoordinatorConfig) (string, func() (*campaign.Report, error)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(cfg)
	type outcome struct {
		report *campaign.Report
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		rep, err := co.Serve(ctx, ln)
		ch <- outcome{rep, err}
	}()
	return ln.Addr().String(), func() (*campaign.Report, error) {
		select {
		case o := <-ch:
			return o.report, o.err
		case <-time.After(30 * time.Second):
			t.Fatal("coordinator did not finish within 30s")
			return nil, nil
		}
	}
}

// rawClient speaks the frame protocol by hand, for simulating misbehaving
// workers (crashes, stalls) precisely.
type rawClient struct {
	t  *testing.T
	fc *frameConn
}

func dialRaw(t *testing.T, addr, name string, slots int) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFrameConn(conn, nil)
	if err := fc.write(&Frame{Type: FrameHello, Hello: &Hello{Proto: ProtoVersion, Worker: name, Slots: slots}}); err != nil {
		t.Fatal(err)
	}
	f, err := fc.read()
	if err != nil || f.Type != FrameWelcome {
		t.Fatalf("handshake: frame=%v err=%v", f, err)
	}
	return &rawClient{t: t, fc: fc}
}

// awaitLeases reads frames until n leases have arrived, returning them.
func (rc *rawClient) awaitLeases(n int) []*Lease {
	rc.t.Helper()
	var leases []*Lease
	for len(leases) < n {
		f, err := rc.fc.read()
		if err != nil {
			rc.t.Fatalf("awaiting leases: %v", err)
		}
		if f.Type == FrameLease {
			leases = append(leases, f.Lease)
		}
	}
	return leases
}

// TestGridWorkerDeathRequeues kills a worker that holds every lease and
// verifies the scenarios are requeued onto a healthy worker and the
// campaign still completes with a full, all-ok result set.
func TestGridWorkerDeathRequeues(t *testing.T) {
	scenarios := testMatrix(7)[:4]
	tel := telemetry.New(telemetry.Options{})
	dir := t.TempDir()
	store, err := campaign.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios: scenarios,
		Store:     store,
		LeaseTTL:  time.Second,
		Backoff:   10 * time.Millisecond,
		Telemetry: tel,
	})

	// The doomed worker grabs every scenario, then dies without a word.
	doomed := dialRaw(t, addr, "doomed", len(scenarios))
	doomed.awaitLeases(len(scenarios))
	doomed.fc.close()

	// A healthy worker joins and should inherit all of it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := NewWorker(WorkerConfig{
			Name: "healthy", Slots: 2,
			Runner: campaign.RunnerConfig{Execute: gridExec},
		})
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
	for i, res := range report.Results {
		if res.Status != campaign.StatusOK {
			t.Errorf("scenario %d = %s (%s), want ok", i, res.Status, res.Err)
		}
	}
	snap := tel.Snapshot()
	if snap["grid.scenarios_requeued"] < uint64(len(scenarios)) {
		t.Errorf("scenarios_requeued = %d, want >= %d (all leases held by the dead worker)",
			snap["grid.scenarios_requeued"], len(scenarios))
	}
	if snap["grid.workers_left"] < 1 {
		t.Errorf("workers_left = %d, want >= 1", snap["grid.workers_left"])
	}
	// The artifacts must still be the complete, ordered set.
	canon := canonicalResults(t, dir)
	if got := bytes.Count(canon, []byte("\n")); got != len(scenarios) {
		t.Errorf("results.jsonl has %d records, want %d", got, len(scenarios))
	}
}

// TestGridLeaseExpiryRequeues stalls a worker (connected but silent — no
// heartbeats, no results) and verifies the lease expires, the scenario is
// requeued elsewhere, and the lease-expiry counter fires.
func TestGridLeaseExpiryRequeues(t *testing.T) {
	scenarios := testMatrix(9)[:2]
	tel := telemetry.New(telemetry.Options{})
	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios: scenarios,
		LeaseTTL:  150 * time.Millisecond,
		Backoff:   10 * time.Millisecond,
		Telemetry: tel,
	})

	// The stalled worker takes a lease and never heartbeats; its TCP
	// connection stays up, so only lease expiry can reclaim the work.
	stalled := dialRaw(t, addr, "stalled", 1)
	stalled.awaitLeases(1)
	defer stalled.fc.close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := NewWorker(WorkerConfig{
			Name: "healthy", Slots: 1,
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
	if snap["grid.lease_expiries"] < 1 {
		t.Errorf("lease_expiries = %d, want >= 1", snap["grid.lease_expiries"])
	}
	if snap["grid.scenarios_requeued"] < 1 {
		t.Errorf("scenarios_requeued = %d, want >= 1", snap["grid.scenarios_requeued"])
	}
}

// TestGridRequeueBudgetExhaustion leaves only a stalled worker connected:
// the scenario's leases keep expiring, the exclusion set is cleared when
// no eligible worker remains, and after the requeue budget is spent the
// scenario is recorded failed — the campaign still completes.
func TestGridRequeueBudgetExhaustion(t *testing.T) {
	scenarios := testMatrix(11)[:1]
	tel := telemetry.New(telemetry.Options{})
	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios: scenarios,
		LeaseTTL:  80 * time.Millisecond,
		Backoff:   10 * time.Millisecond,
		Requeues:  1,
		Telemetry: tel,
	})

	stalled := dialRaw(t, addr, "blackhole", 1)
	stalled.awaitLeases(1)
	defer stalled.fc.close()

	report, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	res := report.Results[0]
	if res.Status != campaign.StatusFailed {
		t.Fatalf("scenario status = %s, want failed", res.Status)
	}
	if !strings.Contains(res.Err, "requeue budget") {
		t.Errorf("failure reason %q does not mention the requeue budget", res.Err)
	}
	if res.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (budget of 1 requeue)", res.Attempts)
	}
	snap := tel.Snapshot()
	if snap["grid.scenarios_failed"] != 1 {
		t.Errorf("scenarios_failed = %d, want 1", snap["grid.scenarios_failed"])
	}
}

// TestGridWorkerAfterCompletionGetsDone verifies a worker that connects
// once the campaign is over is turned away cleanly.
func TestGridWorkerAfterCompletionGetsDone(t *testing.T) {
	scenarios := testMatrix(3)[:1]
	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios: scenarios,
		LeaseTTL:  time.Second,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := NewWorker(WorkerConfig{Runner: campaign.RunnerConfig{Execute: gridExec}})
		_ = w.Run(ctx, addr)
	}()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The listener is closed after completion; a late worker cannot even
	// connect — which Run surfaces as a dial error, not a hang.
	late := NewWorker(WorkerConfig{Runner: campaign.RunnerConfig{Execute: gridExec}})
	errCh := make(chan error, 1)
	go func() { errCh <- late.Run(ctx, addr) }()
	select {
	case <-errCh:
	case <-time.After(5 * time.Second):
		t.Fatal("late worker hung instead of failing fast")
	}
}

// TestGridCancellationSkipsRemaining cancels the campaign mid-run and
// verifies unexecuted scenarios are recorded skipped, matching the
// in-process runner's drain semantics.
func TestGridCancellationSkipsRemaining(t *testing.T) {
	scenarios := testMatrix(5)[:6]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{}, len(scenarios))
	slowExec := func(c context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		started <- struct{}{}
		time.Sleep(50 * time.Millisecond)
		return gridExec(c, sc)
	}
	addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios: scenarios,
		LeaseTTL:  2 * time.Second,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := NewWorker(WorkerConfig{Slots: 1, Runner: campaign.RunnerConfig{Execute: slowExec}})
		_ = w.Run(ctx, addr)
	}()
	<-started // at least one scenario in flight
	cancel()
	report, err := wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var skipped int
	for _, res := range report.Results {
		if res.Status == campaign.StatusSkipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("cancellation recorded no skipped scenarios")
	}
	if len(report.Results) != len(scenarios) {
		t.Errorf("report has %d results, want %d", len(report.Results), len(scenarios))
	}
}

// TestGridHonorsWorkerSlots verifies the coordinator never over-leases a
// worker beyond its advertised slot count.
func TestGridHonorsWorkerSlots(t *testing.T) {
	scenarios := testMatrix(13)[:8]
	var mu sync.Mutex
	inflight, peak := 0, 0
	exec := func(c context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return gridExec(c, sc)
	}
	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios: scenarios,
		LeaseTTL:  2 * time.Second,
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
	if failed := report.Failed(); len(failed) != 0 {
		t.Fatalf("failures: %v", failed)
	}
	if peak > 2 {
		t.Errorf("worker with 2 slots ran %d scenarios concurrently", peak)
	}
}

// TestGridTracePropagation runs a traced scenario through the wire and
// verifies the telemetry trace lands under the store's traces/ directory,
// exactly as in a single-process run.
func TestGridTracePropagation(t *testing.T) {
	scenarios := testMatrix(17)[:1]
	scenarios[0].Trace = true
	tracedExec := func(c context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		out, err := gridExec(c, sc)
		if err == nil && sc.Trace {
			out.Suppression.Trace = []byte(`{"seq":1,"t_us":0,"layer":"injector","kind":"verdict"}` + "\n")
		}
		return out, nil
	}
	dir := t.TempDir()
	store, err := campaign.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunLocal(context.Background(), LocalConfig{
		Workers: 1,
		Coordinator: CoordinatorConfig{
			Scenarios: scenarios, Store: store, LeaseTTL: 2 * time.Second,
		},
		Worker: WorkerConfig{Runner: campaign.RunnerConfig{Execute: tracedExec}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Results[0].Status != campaign.StatusOK {
		t.Fatalf("scenario failed: %s", report.Results[0].Err)
	}
	traces, err := filepath.Glob(filepath.Join(dir, campaign.TracesDir, "*.jsonl"))
	if err != nil || len(traces) != 1 {
		t.Fatalf("traces on disk = %v (err=%v), want exactly 1", traces, err)
	}
	if data := readArtifact(t, dir, campaign.ResultsFile); !bytes.Contains(data, []byte("trace_file")) {
		t.Error("results.jsonl record lacks trace_file")
	}
}

// TestGridRefusesOtherProtocolVersion: a HELLO from an older protocol gets
// a BYE naming the mismatch, not a WELCOME. A v3 worker sends whole
// scenarios back and a v3 coordinator expects them, so neither side may
// talk to the other.
func TestGridRefusesOtherProtocolVersion(t *testing.T) {
	addr, _ := startCoordinator(t, context.Background(), CoordinatorConfig{
		Scenarios: testMatrix(9)[:1], LeaseTTL: time.Second,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFrameConn(conn, nil)
	defer fc.close()
	if err := fc.write(&Frame{Type: FrameHello, Hello: &Hello{Proto: ProtoVersion - 1, Worker: "old", Slots: 1}}); err != nil {
		t.Fatal(err)
	}
	f, err := fc.read()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameBye || f.Bye == nil || !strings.Contains(f.Bye.Reason, "protocol mismatch") {
		t.Fatalf("HELLO with proto %d answered %+v, want a BYE saying protocol mismatch", ProtoVersion-1, f)
	}
}

// TestGridIgnoresOutOfRangeResults: result indices come off the wire. A
// batch naming -1 and len(scenarios) must land nothing, and the campaign
// still completes with exactly one record per scenario.
func TestGridIgnoresOutOfRangeResults(t *testing.T) {
	scenarios := testMatrix(11)[:4]
	dir := t.TempDir()
	store, err := campaign.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Options{})
	addr, wait := startCoordinator(t, context.Background(), CoordinatorConfig{
		Scenarios: scenarios, Store: store, LeaseTTL: 10 * time.Second, Telemetry: tel,
	})
	rc := dialRaw(t, addr, "hostile", len(scenarios))
	defer rc.fc.close()
	leases := rc.awaitLeases(len(scenarios))
	rc.sendResults(
		campaign.ScenarioResult{Scenario: campaign.Scenario{Index: -1}, Status: campaign.StatusOK, Attempts: 1},
		campaign.ScenarioResult{Scenario: campaign.Scenario{Index: len(scenarios)}, Status: campaign.StatusOK, Attempts: 1},
	)
	for _, l := range leases {
		rc.sendResult(l)
	}
	report, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != len(scenarios) {
		t.Fatalf("report has %d results, want %d", len(report.Results), len(scenarios))
	}
	for i, res := range report.Results {
		if res.Status != campaign.StatusOK || res.Scenario != scenarios[i] {
			t.Errorf("result %d = %s for %+v, want ok for %s", i, res.Status, res.Scenario, scenarios[i].Name)
		}
	}
	if got := tel.Snapshot()["grid.scenarios_completed"]; got != uint64(len(scenarios)) {
		t.Errorf("scenarios_completed = %d, want %d", got, len(scenarios))
	}
	canon := canonicalResults(t, dir)
	if got := bytes.Count(canon, []byte("\n")); got != len(scenarios) {
		t.Errorf("results.jsonl has %d records, want %d", got, len(scenarios))
	}
}
