package grid

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"attain/internal/campaign"
	"attain/internal/telemetry"
)

// leaseLedger is a JournalSink that keeps, per worker, how many leases are
// outstanding (granted or adopted, not yet completed or requeued) and the
// most that ever were. The coordinator calls it under its lock in commit
// order, so the high-water mark is exact, not sampled.
type leaseLedger struct {
	mu     sync.Mutex
	holder map[int]map[string]bool
	out    map[string]int
	peak   map[string]int
}

func newLeaseLedger() *leaseLedger {
	return &leaseLedger{holder: map[int]map[string]bool{}, out: map[string]int{}, peak: map[string]int{}}
}

func (l *leaseLedger) hold(idx int, worker string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.holder[idx] == nil {
		l.holder[idx] = map[string]bool{}
	}
	if l.holder[idx][worker] {
		return
	}
	l.holder[idx][worker] = true
	l.out[worker]++
	l.peak[worker] = max(l.peak[worker], l.out[worker])
}

func (l *leaseLedger) release(idx int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for worker := range l.holder[idx] {
		l.out[worker]--
	}
	delete(l.holder, idx)
}

func (l *leaseLedger) Granted(idx int, worker string, grant int, steal bool) { l.hold(idx, worker) }
func (l *leaseLedger) Adopted(idx int, worker string)                        { l.hold(idx, worker) }
func (l *leaseLedger) Requeued(idx int, worker string, grants int, failed bool) {
	l.release(idx)
}
func (l *leaseLedger) Completed(idx int, status campaign.Status) { l.release(idx) }

func (l *leaseLedger) peakOf(worker string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peak[worker]
}

// highWater tracks how many bodies run at once.
type highWater struct{ now, peak atomic.Int64 }

func (h *highWater) enter() {
	n := h.now.Add(1)
	for {
		p := h.peak.Load()
		if n <= p || h.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (h *highWater) leave() { h.now.Add(-1) }

// TestWindowOpensForMicroScenarios: with bodies far shorter than
// refillTarget a worker with 2 slots comes to hold many more than 2
// leases, still executes at most 2 at once, and sends a batch frame only
// when a flush was due.
func TestWindowOpensForMicroScenarios(t *testing.T) {
	scenarios := campaign.Matrix{Seed: 3, Trials: 100}.Expand() // 1,200
	ledger := newLeaseLedger()
	tel := telemetry.New(telemetry.Options{})
	var running highWater
	exec := func(ctx context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		running.enter()
		defer running.leave()
		return gridExec(ctx, sc)
	}
	report, err := RunLocal(context.Background(), LocalConfig{
		Workers:     1,
		Coordinator: CoordinatorConfig{Scenarios: scenarios, LeaseTTL: 5 * time.Second, Journal: ledger},
		Worker: WorkerConfig{
			Slots: 2, BatchResults: DefaultBatchResults, Telemetry: tel,
			Runner: campaign.RunnerConfig{Execute: exec},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.Failed(); len(failed) != 0 {
		t.Fatalf("failures: %v", failed)
	}
	if held := ledger.peakOf("worker-1"); held <= 2 || held > 2+maxPrefetch {
		t.Errorf("worker held at most %d leases, want more than its 2 slots and at most %d", held, 2+maxPrefetch)
	}
	if peak := running.peak.Load(); peak > 2 {
		t.Errorf("worker with 2 slots executed %d scenarios at once", peak)
	}
	// Every batch frame comes from one flush, and every flush from one
	// trigger: a flush request for a full batch or for a slot that found
	// its queue empty, a heartbeat, or the flushes on connect and on DONE.
	// Frame sizes depend on load (a starved CPU empties the queue more
	// often), but this bound does not: an idle-slot request is a trigger
	// too. Sending results as they finish, one frame each, breaks it.
	snap := tel.Snapshot()
	results, batches := snap["grid.worker.results_sent"], snap["grid.worker.batches_sent"]
	triggers := snap["grid.worker.flush_full"] + snap["grid.worker.flush_idle"] + snap["grid.worker.heartbeats_sent"] + 2
	if results != uint64(len(scenarios)) || batches == 0 || batches > triggers {
		t.Errorf("%d results in %d batch frames after %d flush triggers (%d full, %d idle), want %d results and no more frames than triggers",
			results, batches, triggers, snap["grid.worker.flush_full"], snap["grid.worker.flush_idle"], len(scenarios))
	}
}

// TestWindowStaysShutForLongScenarios: with bodies of slots × refillTarget
// or more nothing is ever queued behind a slot — outstanding leases never
// exceed Slots — and a small matrix is spread over both workers. No body
// runs until both workers have started one, so w1 parks holding at most
// its 2 leases and w2 must take the rest however late it connects.
func TestWindowStaysShutForLongScenarios(t *testing.T) {
	scenarios := testMatrix(19)[:12]
	ledger := newLeaseLedger()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(CoordinatorConfig{Scenarios: scenarios, LeaseTTL: 5 * time.Second, Journal: ledger})
	var ran [2]atomic.Int64
	var starters atomic.Int32
	bothStarted := make(chan struct{})
	var wg sync.WaitGroup
	for i, name := range []string{"w1", "w2"} {
		exec := func(ctx context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
			if ran[i].Add(1) == 1 && starters.Add(1) == 2 {
				close(bothStarted)
			}
			select {
			case <-bothStarted:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			time.Sleep(50 * time.Millisecond)
			return gridExec(ctx, sc)
		}
		w := NewWorker(WorkerConfig{Name: name, Slots: 2, BatchResults: DefaultBatchResults,
			Runner: campaign.RunnerConfig{Execute: exec}})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(context.Background(), addrOf(ln))
		}()
	}
	report, err := co.Serve(context.Background(), ln)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.Failed(); len(failed) != 0 {
		t.Fatalf("failures: %v", failed)
	}
	for i, name := range []string{"w1", "w2"} {
		if held := ledger.peakOf(name); held > 2 {
			t.Errorf("%s held %d leases of 50 ms scenarios, want at most its 2 slots", name, held)
		}
		if ran[i].Load() == 0 {
			t.Errorf("%s executed nothing: a 12-scenario matrix must be shared", name)
		}
	}
}

// TestIdleSlotFlushesPartialBatch is the regression test for results held
// back while a sibling slot runs: one 600 ms scenario and five 100 ms ones
// on 2 slots with batching on take as long as the long one, because each
// short result is flushed when its slot finds nothing queued, and the slot
// is re-leased at once (it used to wait for the sibling or the heartbeat:
// 810 ms).
func TestIdleSlotFlushesPartialBatch(t *testing.T) {
	scenarios := testMatrix(41)[:6]
	var longDone atomic.Int64
	var lateStarts atomic.Int64
	exec := func(ctx context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		if sc.Index == 0 {
			time.Sleep(600 * time.Millisecond)
			longDone.Store(1)
		} else {
			if longDone.Load() == 1 {
				lateStarts.Add(1)
			}
			time.Sleep(100 * time.Millisecond)
		}
		return gridExec(ctx, sc)
	}
	start := time.Now()
	report, err := RunLocal(context.Background(), LocalConfig{
		Workers:     1,
		Coordinator: CoordinatorConfig{Scenarios: scenarios},
		Worker: WorkerConfig{Slots: 2, BatchResults: DefaultBatchResults,
			Runner: campaign.RunnerConfig{Execute: exec}},
	})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.Failed(); len(failed) != 0 {
		t.Fatalf("failures: %v", failed)
	}
	if wall >= 700*time.Millisecond {
		t.Errorf("campaign took %s, want under 700ms (the short scenarios fit beside the 600 ms one)", wall.Round(time.Millisecond))
	}
	if n := lateStarts.Load(); n != 0 {
		t.Errorf("%d short scenarios started only after the long one ended: their slot sat idle on an unflushed batch", n)
	}
}

// blockAfterFirst returns an executor whose scenario 0 returns at once
// (opening the lease window) while every other one waits for release, and
// a counter of executions per index.
func blockAfterFirst(n int) (exec campaign.ExecuteFunc, release func(), runs func(int) int64) {
	gate := make(chan struct{})
	counts := make([]atomic.Int64, n)
	exec = func(ctx context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		counts[sc.Index].Add(1)
		if sc.Index > 0 {
			<-gate
		}
		return gridExec(ctx, sc)
	}
	var once sync.Once
	return exec, func() { once.Do(func() { close(gate) }) }, func(i int) int64 { return counts[i].Load() }
}

// held returns how many leases the worker holds, queued or executing.
func (w *Worker) held() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.busy)
}

// waitQueued waits until the worker of a blockAfterFirst campaign holds
// leases beyond the one it executes — scenario 0's result opened the
// window — and every lease the coordinator granted has reached it, and
// returns how many it holds. How far the window opens depends on how long
// scenario 0 measured, so callers use the count, not a constant.
func waitQueued(t *testing.T, w *Worker, tel *telemetry.Telemetry) int {
	t.Helper()
	held := 0
	waitFor(t, "the window to open and fill the queue", func() bool {
		held = w.held()
		return held >= 2 && tel.Snapshot()["grid.scenarios_leased"] == uint64(held+1)
	})
	return held
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHeartbeatClaimsQueuedLeases: leases waiting in the worker's queue
// are listed in its heartbeats like the executing one, so they outlive
// several lease TTLs without expiring.
func TestHeartbeatClaimsQueuedLeases(t *testing.T) {
	scenarios := testMatrix(43)[:8]
	tel := telemetry.New(telemetry.Options{})
	exec, release, _ := blockAfterFirst(len(scenarios))
	defer release()
	addr, wait := startCoordinator(t, context.Background(), CoordinatorConfig{
		Scenarios: scenarios, LeaseTTL: 150 * time.Millisecond, Telemetry: tel,
	})
	w := NewWorker(WorkerConfig{Name: "w", Slots: 1, Runner: campaign.RunnerConfig{Execute: exec}})
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background(), addr) }()

	waitQueued(t, w, tel)
	time.Sleep(450 * time.Millisecond) // three TTLs, nine heartbeats
	if snap := tel.Snapshot(); snap["grid.lease_expiries"] != 0 || snap["grid.scenarios_requeued"] != 0 {
		t.Errorf("queued leases lapsed: %d expiries, %d requeues; heartbeats must claim them",
			snap["grid.lease_expiries"], snap["grid.scenarios_requeued"])
	}
	release()
	report, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.Failed(); len(failed) != 0 {
		t.Fatalf("failures: %v", failed)
	}
	<-done
}

// halfOpenProxy forwards TCP connections to target and can cut the client
// side of the live ones while leaving the target side open, the way a NAT
// timeout does: the target does not learn that its peer is gone.
type halfOpenProxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	conns []net.Conn // client and upstream sides, for cleanup
	live  []net.Conn // client sides not yet cut
}

func startHalfOpenProxy(t *testing.T, target string) *halfOpenProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &halfOpenProxy{ln: ln, target: target}
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, c := range p.conns {
			c.Close()
		}
	})
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, client, up)
			p.live = append(p.live, client)
			p.mu.Unlock()
			go io.Copy(up, client) // a cut client leaves up open
			go func() {
				io.Copy(client, up)
				client.Close()
			}()
		}
	}()
	return p
}

func (p *halfOpenProxy) cutClients() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.live {
		c.Close()
	}
	p.live = nil
}

// TestReconnectKeepsQueuedLeases: a RunLoop worker whose connection drops
// without the coordinator noticing keeps its queue, re-HELLOs with Resume,
// and has every lease it held — the queued ones as much as the executing
// one — transferred to the new connection: nothing is requeued or granted
// again, and every scenario executes exactly once.
func TestReconnectKeepsQueuedLeases(t *testing.T) {
	scenarios := testMatrix(47)[:8]
	exec, release, runs := blockAfterFirst(len(scenarios))
	defer release()
	tel, wtel := telemetry.New(telemetry.Options{}), telemetry.New(telemetry.Options{})
	addr, wait := startCoordinator(t, context.Background(), CoordinatorConfig{
		Scenarios: scenarios, LeaseTTL: 10 * time.Second, Telemetry: tel,
	})
	proxy := startHalfOpenProxy(t, addr)
	w := NewWorker(WorkerConfig{Name: "w", Slots: 1, Reconnect: 10 * time.Millisecond,
		Telemetry: wtel, Runner: campaign.RunnerConfig{Execute: exec}})
	done := make(chan error, 1)
	go func() { done <- w.RunLoop(context.Background(), addrOf(proxy.ln)) }()

	queued := waitQueued(t, w, tel)
	proxy.cutClients()
	waitCounter(t, tel, "grid.leases_adopted", uint64(queued))
	if got := w.held(); got != queued {
		t.Errorf("worker holds %d leases after the reconnect, want the %d it had", got, queued)
	}
	release()
	report, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.Failed(); len(failed) != 0 {
		t.Fatalf("failures: %v", failed)
	}
	if err := <-done; err != nil {
		t.Errorf("RunLoop returned %v, want nil", err)
	}
	for i := range scenarios {
		if n := runs(i); n != 1 {
			t.Errorf("scenario %d executed %d times, want once", i, n)
		}
	}
	snap := tel.Snapshot()
	if snap["grid.scenarios_requeued"] != 0 || snap["grid.scenarios_leased"] != uint64(len(scenarios)) {
		t.Errorf("requeued=%d leased=%d, want 0 and %d (each scenario granted once)",
			snap["grid.scenarios_requeued"], snap["grid.scenarios_leased"], len(scenarios))
	}
	if wtel.Snapshot()["grid.worker.reconnects"] < 1 {
		t.Error("worker never counted a reconnect")
	}
}

// openWindow plays a 1-slot worker whose first result reports a 1 µs
// duration, so the coordinator opens its window, and returns every lease
// the worker then holds.
func openWindow(t *testing.T, rc *rawClient, pending int) []*Lease {
	t.Helper()
	first := rc.awaitLeases(1)[0]
	out, err := gridExec(context.Background(), first.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	rc.sendResults(campaign.ScenarioResult{
		Scenario: first.Scenario, Outcome: out, Status: campaign.StatusOK, Attempts: 1, Duration: time.Microsecond,
	})
	return rc.awaitLeases(pending)
}

// TestResumeReadoptsQueuedLeases: the Resume handshake transfers every
// lease registered under the worker's name, the ones beyond its slot
// count included, and results for them are accepted on the new connection.
func TestResumeReadoptsQueuedLeases(t *testing.T) {
	scenarios := testMatrix(53)[:6]
	tel := telemetry.New(telemetry.Options{})
	addr, wait := startCoordinator(t, context.Background(), CoordinatorConfig{
		Scenarios: scenarios, LeaseTTL: 10 * time.Second, Telemetry: tel,
	})
	first := dialRaw(t, addr, "wobbly", 1)
	leases := openWindow(t, first, len(scenarios)-1)

	second := dialRawHello(t, addr, &Hello{Proto: ProtoVersion, Worker: "wobbly", Slots: 1, Resume: true})
	defer second.fc.close()
	if got := tel.Snapshot()["grid.leases_adopted"]; got != uint64(len(leases)) {
		t.Fatalf("leases_adopted = %d, want all %d held (1 executing, the rest queued)", got, len(leases))
	}
	for _, l := range leases {
		second.sendResult(l)
	}
	report, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.Failed(); len(failed) != 0 {
		t.Fatalf("failures: %v", failed)
	}
	if snap := tel.Snapshot(); snap["grid.scenarios_requeued"] != 0 || snap["grid.scenarios_leased"] != uint64(len(scenarios)) {
		t.Errorf("requeued=%d leased=%d, want 0 and %d (each scenario granted once)",
			snap["grid.scenarios_requeued"], snap["grid.scenarios_leased"], len(scenarios))
	}
}

// TestWorkerDeathRequeuesWholeQueue: a worker that dies holding a full
// window has all of it — not just a slot's worth — requeued and finished
// elsewhere, within the requeue budget.
func TestWorkerDeathRequeuesWholeQueue(t *testing.T) {
	scenarios := campaign.Matrix{Seed: 59, Trials: 10}.Expand() // 120
	tel := telemetry.New(telemetry.Options{})
	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorConfig{
		Scenarios: scenarios, LeaseTTL: 5 * time.Second, Backoff: 10 * time.Millisecond, Telemetry: tel,
	})
	doomed := dialRaw(t, addr, "doomed", 1)
	held := openWindow(t, doomed, len(scenarios)-1)
	doomed.fc.close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := NewWorker(WorkerConfig{Name: "healthy", Slots: 2, Runner: campaign.RunnerConfig{Execute: gridExec}})
		_ = w.Run(ctx, addr)
	}()
	report, err := wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if failed := report.Failed(); len(failed) != 0 {
		t.Fatalf("failures (requeue budget spent?): %v", failed)
	}
	if got := tel.Snapshot()["grid.scenarios_requeued"]; got != uint64(len(held)) {
		t.Errorf("scenarios_requeued = %d, want the %d leases the dead worker held", got, len(held))
	}
}

// TestCoordinatorDropOutcomes: with DropOutcomes the store still records
// every outcome while the coordinator's own results keep statuses only.
func TestCoordinatorDropOutcomes(t *testing.T) {
	scenarios := testMatrix(61)
	dir := t.TempDir()
	store, err := campaign.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunLocal(context.Background(), LocalConfig{
		Coordinator: CoordinatorConfig{Scenarios: scenarios, Store: store, DropOutcomes: true},
		Worker: WorkerConfig{Slots: 2, BatchResults: DefaultBatchResults,
			Runner: campaign.RunnerConfig{Execute: gridExec}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range report.Results {
		if res.Status != campaign.StatusOK || res.Outcome != nil {
			t.Errorf("result %d: status %s, outcome kept = %v; want ok with the outcome released", i, res.Status, res.Outcome != nil)
		}
	}
	kept, err := RunLocal(context.Background(), LocalConfig{
		Coordinator: CoordinatorConfig{Scenarios: scenarios},
		Worker:      WorkerConfig{Runner: campaign.RunnerConfig{Execute: gridExec}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if kept.Results[0].Outcome == nil {
		t.Error("outcomes dropped without DropOutcomes")
	}
	if got := canonicalResults(t, dir); !bytes.Contains(got, []byte(`"FinalState"`)) && !bytes.Contains(got, []byte(`"final_state"`)) {
		t.Errorf("store lost the outcomes the coordinator released:\n%s", got)
	}
}

// TestResultBatchHostileCount: Count comes off the wire; a negative or
// absurd one must fail the count check, not size an allocation.
func TestResultBatchHostileCount(t *testing.T) {
	batch, err := EncodeResultBatch(stubResults(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{-1, 1 << 40} {
		if _, err := (&ResultBatch{Count: count, Records: batch.Records}).Decode(); err == nil {
			t.Errorf("decode accepted a batch claiming %d records", count)
		}
	}
}

func stubResults(n int) []campaign.ScenarioResult {
	scenarios := campaign.Matrix{Seed: 1, Trials: (n + 11) / 12}.Expand()[:n]
	results := make([]campaign.ScenarioResult, n)
	for i, sc := range scenarios {
		out, _ := gridExec(context.Background(), sc)
		results[i] = campaign.ScenarioResult{Scenario: sc, Outcome: out, Status: campaign.StatusOK,
			Attempts: 1, Started: time.Unix(1700000000, 0), Duration: time.Microsecond}
	}
	return results
}

// TestEncodeResultBatchReusesCompressor: a small batch must cost what its
// records cost, not the ~1 MB deflate state a fresh gzip.Writer builds.
func TestEncodeResultBatchReusesCompressor(t *testing.T) {
	results := stubResults(2)
	if _, err := EncodeResultBatch(results); err != nil { // warm the pool
		t.Fatal(err)
	}
	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, err := EncodeResultBatch(results); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// A fresh compressor is over 800 KB. The bound leaves room for the
	// pool losing some: a GC empties it, and under the race detector
	// sync.Pool drops a quarter of all Puts on purpose.
	if perOp := (after.TotalAlloc - before.TotalAlloc) / rounds; perOp > 400<<10 {
		t.Errorf("2-record batch allocates %d bytes per encode: the compressor is not reused", perOp)
	}
}

// BenchmarkEncodeResultBatch times the batch codec at the two sizes that
// matter: the 2-record batch an idle slot flushes and the full one.
func BenchmarkEncodeResultBatch(b *testing.B) {
	for _, n := range []int{2, DefaultBatchResults} {
		results := stubResults(n)
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch, err := EncodeResultBatch(results)
				if err != nil {
					b.Fatal(err)
				}
				sinkBatch = batch
			}
		})
	}
}

var sinkBatch *ResultBatch

// BenchmarkGridLocalStub runs the benchmark harness's campaign_grid pass —
// 3,330 scenarios with an empty body through RunLocal into a store, 2
// slots a worker, full-size result batches — so what it times is leases,
// frames, batches and store puts.
func BenchmarkGridLocalStub(b *testing.B) {
	scenarios := campaign.Matrix{Kinds: []campaign.Kind{campaign.KindInterruption}, Trials: 555, Seed: 1}.Expand()
	stub := func(ctx context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		return &campaign.Outcome{}, nil
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store, err := campaign.NewStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		report, err := RunLocal(context.Background(), LocalConfig{
			Workers:     runtime.GOMAXPROCS(0),
			Coordinator: CoordinatorConfig{Campaign: "bench", Scenarios: scenarios, Store: store},
			Worker: WorkerConfig{Slots: 2, BatchResults: DefaultBatchResults,
				Runner: campaign.RunnerConfig{Execute: stub}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if failed := report.Failed(); len(failed) != 0 {
			b.Fatalf("failures: %v", failed)
		}
	}
	b.ReportMetric(float64(len(scenarios))*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
}
