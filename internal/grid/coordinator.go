package grid

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"attain/internal/campaign"
	"attain/internal/telemetry"
)

// ErrAborted is returned by Serve when the campaign was stopped via Abort:
// artifacts are left un-finalized so the campaign can be resumed later.
var ErrAborted = errors.New("grid: campaign aborted")

// JournalSink observes the coordinator's durable state transitions, in
// commit order. Implementations (internal/gridsvc's append-only journal)
// persist them so a restarted coordinator can rebuild its lease table via
// CoordinatorConfig.Restore. Methods are called with the coordinator lock
// held — the transition must be durable before any frame that depends on
// it is sent — so they must not call back into the coordinator.
type JournalSink interface {
	// Granted records a lease grant; steal marks a duplicate (work-steal)
	// grant, which does not consume the requeue budget.
	Granted(idx int, worker string, grant int, steal bool)
	// Adopted records a lease re-adopted from a reconnecting worker or a
	// pre-restart execution claimed by heartbeat.
	Adopted(idx int, worker string)
	// Requeued records a lost lease returning to the pending queue;
	// failed marks requeue-budget exhaustion (the scenario is recorded
	// failed instead of requeued).
	Requeued(idx int, worker string, grants int, failed bool)
	// Completed records a scenario reaching a final status.
	Completed(idx int, status campaign.Status)
}

// Restore seeds a coordinator from a prior incarnation's persisted state:
// the results.jsonl watermark (which scenarios already have records) and
// the journal's requeue bookkeeping. Scenarios in Done are neither re-run
// nor re-recorded; everything else starts pending, with grant counts and
// exclusion sets carried over so requeue budgets survive the restart.
type Restore struct {
	// Done maps scenario index → recorded status for every scenario
	// already present in the store's validated results.jsonl prefix.
	Done map[int]campaign.Status
	// Grants maps scenario index → grants consumed before the restart.
	Grants map[int]int
	// Excluded maps scenario index → workers that lost the scenario.
	Excluded map[int][]string
}

// CoordinatorConfig tunes a campaign coordinator.
type CoordinatorConfig struct {
	// Campaign names the run (echoed to workers in WELCOME).
	Campaign string
	// Scenarios is the expanded matrix, indices 0..n-1 in order.
	Scenarios []campaign.Scenario
	// Store, when set, receives every result as it completes plus the
	// aggregate artifacts at the end of Serve — exactly as the in-process
	// runner would feed it.
	Store *campaign.Store
	// LeaseTTL is how long a grant survives without a heartbeat claiming
	// it (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Requeues bounds re-grants per scenario after expiries or worker
	// deaths (default DefaultRequeues).
	Requeues int
	// Backoff is the base wait before a requeued scenario becomes
	// grantable again; it doubles per requeue and carries the scenario's
	// seeded jitter (default 250 ms).
	Backoff time.Duration
	// StealBudget enables work stealing when > 0: once nothing is
	// pending, a lease held longer than StealAfter may be re-granted to
	// an idle worker, at most StealBudget times per scenario. First
	// result wins; the duplicate is dropped.
	StealBudget int
	// StealAfter is the minimum age of a lease before it may be stolen
	// (default LeaseTTL/2, so stealing undercuts expiry without
	// duplicating work that is merely slow to schedule).
	StealAfter time.Duration
	// Runner is the execution policy workers adopt (Timeout, Retries,
	// Backoff); Workers/Execute/Store/Progress are coordinator-side
	// concerns and ignored here.
	Runner campaign.RunnerConfig
	// Journal, when set, receives every durable state transition.
	Journal JournalSink
	// Restore, when set, seeds the lease table from a prior run.
	Restore *Restore
	// DropOutcomes releases each result's Outcome once the store has
	// recorded it, keeping coordinator memory flat for 10⁵-scenario
	// campaigns. The final Report then carries statuses only, so the
	// store's aggregate CSVs cover post-restart outcomes alone.
	DropOutcomes bool
	// Telemetry collects the grid counters and events (nil = disabled).
	Telemetry *telemetry.Telemetry
	// Progress, when set, receives one line per scenario completion and
	// the final summary.
	Progress io.Writer
}

// Scenario lease states.
const (
	statePending = iota
	stateLeased
	stateDone
)

// leaseHold is one worker's claim on a leased scenario. Work stealing
// means a scenario can have several concurrent holders; the lease expires
// per holder, and the scenario requeues only when the last holder is gone.
type leaseHold struct {
	deadline time.Time
	granted  time.Time
	steal    bool
}

// scenState is the coordinator's bookkeeping for one scenario.
type scenState struct {
	state int
	// holders maps worker name → claim while leased.
	holders map[string]*leaseHold
	// notBefore delays re-grant of a requeued scenario (requeue backoff).
	notBefore time.Time
	// grants counts non-steal grants so far (the requeue budget); steals
	// counts duplicate steal grants (the steal budget). excluded lists
	// workers this scenario must avoid (they held it when it was lost);
	// it is allocated on the first loss.
	grants   int
	steals   int
	excluded map[string]bool
}

// exclude bars worker from being granted this scenario again.
func (st *scenState) exclude(worker string) {
	if st.excluded == nil {
		st.excluded = make(map[string]bool)
	}
	st.excluded[worker] = true
}

// oldestGrant returns the earliest grant time among current holders.
func (st *scenState) oldestGrant() time.Time {
	var oldest time.Time
	for _, h := range st.holders {
		if oldest.IsZero() || h.granted.Before(oldest) {
			oldest = h.granted
		}
	}
	return oldest
}

// remoteWorker is a connected worker: slots is how many scenarios it
// executes at once, leases every scenario it holds (executing or queued).
type remoteWorker struct {
	name   string
	slots  int
	conn   *frameConn
	leases map[int]bool
}

// refillTarget is how much work a worker may hold queued behind each slot,
// measured at the mean scenario duration: about one result-batch round
// trip (encode, loopback or LAN hop, store puts, sweep, LEASE burst back),
// which is how long a slot would otherwise idle between finishing a
// scenario and receiving the next. A scenario longer than slots ×
// refillTarget is therefore never queued behind another, and the tail
// cost of queueing — work sitting in one worker's queue that an idle
// worker could have started — is bounded by refillTarget at the mean.
const refillTarget = 4 * time.Millisecond

// maxPrefetch caps the queued leases per worker: one full result batch
// being filled while another is in flight to the coordinator.
const maxPrefetch = 2 * DefaultBatchResults

// WorkerStatus is one connected worker's live state, for dashboards.
type WorkerStatus struct {
	Name  string `json:"name"`
	Slots int    `json:"slots"`
	// Leases is how many scenarios the worker currently holds;
	// OldestLeaseAgeMS is how long its longest-held lease has been out.
	Leases           int   `json:"leases"`
	OldestLeaseAgeMS int64 `json:"oldest_lease_age_ms"`
}

// StatusSnapshot is a point-in-time view of a running campaign, cheap
// enough to poll from a status endpoint.
type StatusSnapshot struct {
	Campaign  string `json:"campaign"`
	Total     int    `json:"total"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Pending   int    `json:"pending"`
	Leased    int    `json:"leased"`
	Remaining int    `json:"remaining"`
	Finished  bool   `json:"finished"`
	// Workers is sorted by name.
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// Coordinator shards a campaign's scenarios across TCP workers under
// heartbeat-refreshed leases and lands the results in an index-ordered
// store, producing artifacts identical to a single-process run.
type Coordinator struct {
	cfg CoordinatorConfig

	mu   sync.Mutex
	scen []scenState
	// leased holds the indices in stateLeased, ascending: expiry and
	// stealing walk it instead of the matrix, so a sweep costs O(leases
	// out), not O(scenarios left). nPending counts statePending, and
	// firstPending is a lower bound on the lowest pending index (done is
	// permanent and grants go out in index order, so the cursor only
	// moves back when a lost lease requeues). setState maintains all
	// three.
	leased       []int
	nPending     int
	firstPending int
	// meanDur is the moving average of reported ScenarioResult.Duration
	// (0 until a first result lands); it sizes the lease window.
	meanDur   time.Duration
	workers   map[string]*remoteWorker
	results   []campaign.ScenarioResult
	remaining int
	failed    int
	finished  bool
	aborted   bool
	done      chan struct{}

	ctrLeased     *telemetry.Counter
	ctrCompleted  *telemetry.Counter
	ctrRequeued   *telemetry.Counter
	ctrFailed     *telemetry.Counter
	ctrExpired    *telemetry.Counter
	ctrJoined     *telemetry.Counter
	ctrLeft       *telemetry.Counter
	ctrDuplicate  *telemetry.Counter
	ctrStolen     *telemetry.Counter
	ctrAdopted    *telemetry.Counter
	gaugeWorkers  *telemetry.Gauge
	gaugeLeases   *telemetry.Gauge
	storeErr      error
	progressCount int
}

// NewCoordinator builds a coordinator, applying config defaults and any
// Restore state.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Requeues <= 0 {
		cfg.Requeues = DefaultRequeues
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 250 * time.Millisecond
	}
	if cfg.StealAfter <= 0 {
		cfg.StealAfter = cfg.LeaseTTL / 2
	}
	c := &Coordinator{
		cfg:       cfg,
		workers:   make(map[string]*remoteWorker),
		results:   make([]campaign.ScenarioResult, len(cfg.Scenarios)),
		remaining: len(cfg.Scenarios),
		done:      make(chan struct{}),

		ctrLeased:    cfg.Telemetry.Counter("grid.scenarios_leased"),
		ctrCompleted: cfg.Telemetry.Counter("grid.scenarios_completed"),
		ctrRequeued:  cfg.Telemetry.Counter("grid.scenarios_requeued"),
		ctrFailed:    cfg.Telemetry.Counter("grid.scenarios_failed"),
		ctrExpired:   cfg.Telemetry.Counter("grid.lease_expiries"),
		ctrJoined:    cfg.Telemetry.Counter("grid.workers_joined"),
		ctrLeft:      cfg.Telemetry.Counter("grid.workers_left"),
		ctrDuplicate: cfg.Telemetry.Counter("grid.results_duplicate"),
		ctrStolen:    cfg.Telemetry.Counter("grid.scenarios_stolen"),
		ctrAdopted:   cfg.Telemetry.Counter("grid.leases_adopted"),
		gaugeWorkers: cfg.Telemetry.Gauge("grid.workers_connected"),
		gaugeLeases:  cfg.Telemetry.Gauge("grid.leases_outstanding"),
	}
	cfg.Telemetry.Counter("grid.scenarios_total").Add(uint64(len(cfg.Scenarios)))
	c.scen = make([]scenState, len(cfg.Scenarios))
	c.nPending = len(c.scen)
	if r := cfg.Restore; r != nil {
		for idx, status := range r.Done {
			if idx < 0 || idx >= len(c.scen) {
				continue
			}
			st := &c.scen[idx]
			if st.state == stateDone {
				continue
			}
			c.setState(idx, stateDone)
			c.results[idx] = campaign.ScenarioResult{Scenario: c.cfg.Scenarios[idx], Status: status}
			c.remaining--
			if status == campaign.StatusFailed {
				c.failed++
			}
		}
		for idx, grants := range r.Grants {
			if idx < 0 || idx >= len(c.scen) || c.scen[idx].state == stateDone {
				continue
			}
			c.scen[idx].grants = grants
		}
		for idx, names := range r.Excluded {
			if idx < 0 || idx >= len(c.scen) || c.scen[idx].state == stateDone {
				continue
			}
			for _, name := range names {
				c.scen[idx].exclude(name)
			}
		}
	}
	return c
}

// Serve accepts workers on ln and runs the campaign to completion: every
// scenario ends done or failed, results stream into the store in index
// order, and the report comes back exactly as campaign.Runner.Run would
// shape it. Cancelling ctx stops granting, records unfinished scenarios
// as skipped, and still finishes the store; Abort instead leaves the
// store un-finalized (resumable) and returns ErrAborted. Serve closes ln.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) (*campaign.Report, error) {
	start := time.Now()
	var conns sync.WaitGroup

	// A fully-restored campaign (every scenario already recorded) is done
	// before the first worker connects.
	c.mu.Lock()
	if c.remaining == 0 && !c.finished {
		select {
		case <-c.done:
		default:
			close(c.done)
		}
	}
	c.mu.Unlock()

	// Accept loop: runs until the listener closes (campaign end).
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				c.handleConn(conn)
			}()
		}
	}()

	// Scheduler: expire stale leases, age requeue backoffs, grant work.
	tick := c.cfg.LeaseTTL / 8
	if c.cfg.StealBudget > 0 && c.cfg.StealAfter/2 < tick {
		tick = c.cfg.StealAfter / 2
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

loop:
	for {
		select {
		case <-c.done:
			break loop
		case <-ctx.Done():
			break loop
		case <-ticker.C:
			c.sweep(time.Now())
		}
	}

	// Shut down: no more grants, tell workers, close everything.
	c.mu.Lock()
	c.finished = true
	aborted := c.aborted
	for _, w := range c.workers {
		go func(fc *frameConn) {
			if !aborted {
				fc.write(&Frame{Type: FrameDone})
			}
			fc.close()
		}(w.conn)
	}
	c.mu.Unlock()
	ln.Close()
	// Every conns.Add happens on the accept loop: wait for it to exit
	// before Wait, which must not run concurrently with an Add from zero.
	<-accepting
	conns.Wait()

	if aborted {
		// Crash-equivalent stop: leave results.jsonl a valid prefix for
		// ResumeStore, skip aggregates, and report nothing — the journal
		// and store carry everything a restart needs.
		if c.cfg.Store != nil {
			c.storeAbort()
		}
		return nil, ErrAborted
	}

	// Anything not done drains as skipped (cancellation path).
	c.mu.Lock()
	for i := range c.scen {
		if st := &c.scen[i]; st.state != stateDone {
			c.results[i] = campaign.ScenarioResult{
				Scenario: c.cfg.Scenarios[i],
				Status:   campaign.StatusSkipped,
				Err:      fmt.Sprintf("not started: %v", context.Cause(ctx)),
			}
		}
	}
	report := &campaign.Report{Results: c.results, Wall: time.Since(start)}
	storeErr := c.storeErr
	c.mu.Unlock()

	if c.cfg.Progress != nil {
		io.WriteString(c.cfg.Progress, report.Summary())
	}
	if c.cfg.Store != nil {
		if err := c.cfg.Store.Finish(report); err != nil && storeErr == nil {
			storeErr = err
		}
	}
	return report, storeErr
}

// storeAbort closes the store without finalizing (see campaign.Store.Abort).
func (c *Coordinator) storeAbort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.cfg.Store.Abort(); err != nil && c.storeErr == nil {
		c.storeErr = err
	}
}

// Abort stops the campaign immediately without finalizing artifacts:
// workers are disconnected without DONE, the store's results.jsonl is left
// a valid resumable prefix (no skip records, no aggregates), and Serve
// returns ErrAborted. Use it for crash-equivalent shutdown — a SIGTERM'd
// service that will resume the campaign on restart.
func (c *Coordinator) Abort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return
	}
	c.aborted = true
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}

// Status returns a live snapshot for dashboards and status endpoints.
func (c *Coordinator) Status() StatusSnapshot {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := StatusSnapshot{
		Campaign:  c.cfg.Campaign,
		Total:     len(c.scen),
		Remaining: c.remaining,
		Failed:    c.failed,
		Finished:  c.finished,
	}
	s.Done = s.Total - s.Remaining
	s.Pending, s.Leased = c.nPending, len(c.leased)
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := c.workers[name]
		ws := WorkerStatus{Name: name, Slots: w.slots, Leases: len(w.leases)}
		for idx := range w.leases {
			if h := c.scen[idx].holders[name]; h != nil {
				if age := now.Sub(h.granted).Milliseconds(); age > ws.OldestLeaseAgeMS {
					ws.OldestLeaseAgeMS = age
				}
			}
		}
		s.Workers = append(s.Workers, ws)
	}
	return s
}

// handleConn speaks the protocol with one worker: HELLO/WELCOME handshake,
// then heartbeats and results until the connection ends, at which point
// every lease the worker still holds is requeued (unless another holder
// remains, or the worker reconnects with Resume and re-adopts them).
func (c *Coordinator) handleConn(conn net.Conn) {
	fc := newFrameConn(conn, c.cfg.Telemetry)
	defer fc.close()

	f, err := fc.read()
	if err != nil || f.Type != FrameHello || f.Hello == nil {
		return
	}
	if f.Hello.Proto != ProtoVersion {
		fc.write(&Frame{Type: FrameBye, Bye: &Bye{
			Reason: fmt.Sprintf("protocol mismatch: coordinator=%d worker=%d", ProtoVersion, f.Hello.Proto)}})
		return
	}
	slots := f.Hello.Slots
	if slots < 1 {
		slots = 1
	}
	w := &remoteWorker{name: f.Hello.Worker, slots: slots, conn: fc, leases: make(map[int]bool)}
	if w.name == "" {
		w.name = conn.RemoteAddr().String()
	}

	adopted := 0
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		fc.write(&Frame{Type: FrameDone})
		return
	}
	if old, taken := c.workers[w.name]; taken {
		if f.Hello.Resume {
			// Reconnect: transfer the old connection's leases to the new
			// one and retire the old conn. Its reader goroutine's
			// dropWorker no-ops (the registry no longer points at it), so
			// nothing is requeued.
			w.leases = old.leases
			adopted = len(old.leases)
			go old.conn.close()
		} else {
			w.name = w.name + "@" + conn.RemoteAddr().String()
		}
	}
	c.workers[w.name] = w
	c.gaugeWorkers.Set(int64(len(c.workers)))
	c.mu.Unlock()
	c.ctrJoined.Inc()
	if adopted > 0 {
		c.ctrAdopted.Add(uint64(adopted))
	}
	c.cfg.Telemetry.Emit(telemetry.Event{
		Layer: telemetry.LayerGrid, Kind: telemetry.KindWorker,
		Node: w.name, Detail: fmt.Sprintf("joined slots=%d adopted=%d", slots, adopted)})

	welcome := &Welcome{
		Proto:       ProtoVersion,
		Campaign:    c.cfg.Campaign,
		Scenarios:   len(c.cfg.Scenarios),
		LeaseMS:     c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMS: (c.cfg.LeaseTTL / 3).Milliseconds(),
		TimeoutMS:   c.cfg.Runner.Timeout.Milliseconds(),
		Retries:     c.cfg.Runner.Retries,
		BackoffMS:   c.cfg.Runner.Backoff.Milliseconds(),
	}
	if err := fc.write(&Frame{Type: FrameWelcome, Welcome: welcome}); err != nil {
		c.dropWorker(w, "handshake write failed")
		return
	}
	c.sweep(time.Now()) // grant immediately rather than waiting a tick

	for {
		f, err := fc.read()
		if err != nil {
			c.dropWorker(w, fmt.Sprintf("connection lost: %v", err))
			return
		}
		switch f.Type {
		case FrameHeartbeat:
			busy := []int(nil)
			if f.Heartbeat != nil {
				busy = f.Heartbeat.Busy
			}
			c.refreshLeases(w, busy)
		case FrameResultBatch:
			if f.ResultBatch == nil {
				continue
			}
			results, err := f.ResultBatch.Decode()
			if err != nil {
				c.dropWorker(w, fmt.Sprintf("bad result batch: %v", err))
				return
			}
			c.applyResults(w, results)
		case FrameBye:
			c.dropWorker(w, "worker said bye")
			return
		default:
			// Unknown frames are ignored for forward compatibility.
		}
	}
}

// refreshLeases extends the deadlines of the leases the worker claims to
// be executing. Leases the worker does not claim are left to expire. A
// claimed scenario the coordinator believes pending is re-adopted: after a
// coordinator restart the worker is still executing a pre-restart grant,
// and adopting it beats re-running the scenario elsewhere.
func (c *Coordinator) refreshLeases(w *remoteWorker, busy []int) {
	now := time.Now()
	adopted := 0
	c.mu.Lock()
	for _, idx := range busy {
		if idx < 0 || idx >= len(c.scen) {
			continue
		}
		st := &c.scen[idx]
		switch st.state {
		case stateLeased:
			if h := st.holders[w.name]; h != nil {
				h.deadline = now.Add(c.cfg.LeaseTTL)
			}
		case statePending:
			c.setState(idx, stateLeased)
			if st.holders == nil {
				st.holders = make(map[string]*leaseHold)
			}
			st.holders[w.name] = &leaseHold{deadline: now.Add(c.cfg.LeaseTTL), granted: now}
			w.leases[idx] = true
			adopted++
			if c.cfg.Journal != nil {
				c.cfg.Journal.Adopted(idx, w.name)
			}
		}
	}
	c.mu.Unlock()
	if adopted > 0 {
		c.ctrAdopted.Add(uint64(adopted))
		c.cfg.Telemetry.Emit(telemetry.Event{
			Layer: telemetry.LayerGrid, Kind: telemetry.KindLease,
			Node: w.name, Detail: fmt.Sprintf("re-adopted %d in-flight leases", adopted)})
	}
}

// applyResults lands the results of one RESULT_BATCH frame under a single
// lock acquisition, in frame order: the first result for a
// scenario wins (a slow worker racing its own expired lease — or a steal
// racing the original holder — produces duplicates, which are counted and
// dropped), the store streams it in index order, and one scheduler pass
// then refills every slot the frame freed.
func (c *Coordinator) applyResults(w *remoteWorker, results []campaign.ScenarioResult) {
	duplicates := 0
	landed := results[:0] // the frame's non-duplicates, for the reporting below
	c.mu.Lock()
	count := c.progressCount
	for _, res := range results {
		idx := res.Scenario.Index
		if idx < 0 || idx >= len(c.scen) {
			continue
		}
		res.Scenario = c.cfg.Scenarios[idx] // the wire names it by index only
		st := &c.scen[idx]
		delete(w.leases, idx)
		if st.state == stateDone {
			duplicates++
			continue
		}
		// Release every holder (steals included) — their slots refill below.
		for name := range st.holders {
			if hw := c.workers[name]; hw != nil {
				delete(hw.leases, idx)
			}
		}
		st.holders = nil
		c.setState(idx, stateDone)
		if c.cfg.Store != nil {
			if err := c.cfg.Store.Put(res); err != nil && c.storeErr == nil {
				c.storeErr = err
			}
		}
		c.observeDuration(res.Duration)
		if c.cfg.DropOutcomes {
			res.Outcome = nil
		}
		c.results[idx] = res
		c.remaining--
		if res.Status == campaign.StatusFailed {
			c.failed++
		}
		if c.cfg.Journal != nil {
			c.cfg.Journal.Completed(idx, res.Status)
		}
		landed = append(landed, res)
	}
	c.progressCount += len(landed)
	remaining := c.remaining
	c.mu.Unlock()

	c.ctrDuplicate.Add(uint64(duplicates))
	c.ctrCompleted.Add(uint64(len(landed)))
	for _, res := range landed {
		count++
		if c.cfg.Telemetry.Enabled() {
			c.cfg.Telemetry.Emit(telemetry.Event{
				Layer: telemetry.LayerGrid, Kind: telemetry.KindResult,
				Node: w.name, Detail: fmt.Sprintf("%s status=%s", res.Scenario.Name, res.Status)})
		}
		if c.cfg.Progress != nil {
			extra := ""
			if res.Attempts > 1 {
				extra = fmt.Sprintf(" attempts=%d", res.Attempts)
			}
			if res.Status != campaign.StatusOK && res.Err != "" {
				extra += ": " + res.Err
			}
			fmt.Fprintf(c.cfg.Progress, "[%d/%d] %-7s %-40s %8s worker=%s%s\n",
				count, len(c.cfg.Scenarios), res.Status, res.Scenario.Name,
				res.Duration.Round(time.Millisecond), w.name, extra)
		}
	}
	if remaining == 0 {
		c.signalDone()
	} else {
		c.sweep(time.Now())
	}
}

// observeDuration folds one reported scenario duration into meanDur, an
// exponential moving average weighted 1/8 so the window follows a change
// of regime within a few dozen results. A zero duration is a result
// nobody timed, not a fast scenario. Called with c.mu held.
func (c *Coordinator) observeDuration(d time.Duration) {
	switch {
	case d <= 0:
	case c.meanDur == 0:
		c.meanDur = d
	default:
		c.meanDur = max(1, c.meanDur+(d-c.meanDur)/8)
	}
}

// windowLocked is how many leases a worker with the given slot count may
// hold: one per slot, plus enough queued behind them to cover refillTarget
// at the measured mean duration. Nothing is queued before the first
// measurement, and nothing ever for scenarios of slots × refillTarget or
// longer — the paper's seconds-long runs are placed, stolen and balanced
// one lease per slot. Called with c.mu held.
func (c *Coordinator) windowLocked(slots int) int {
	if c.meanDur == 0 {
		return slots
	}
	prefetch := time.Duration(slots) * refillTarget / c.meanDur
	return slots + int(min(prefetch, maxPrefetch))
}

// setState moves scenario idx to state, keeping the pending count, the
// leased set and the first-pending cursor in step. Called with c.mu held.
func (c *Coordinator) setState(idx, state int) {
	st := &c.scen[idx]
	if st.state == state {
		return
	}
	switch st.state {
	case statePending:
		c.nPending--
	case stateLeased:
		i, _ := slices.BinarySearch(c.leased, idx)
		c.leased = slices.Delete(c.leased, i, i+1)
	}
	switch state {
	case statePending:
		c.nPending++
		c.firstPending = min(c.firstPending, idx)
	case stateLeased:
		i, _ := slices.BinarySearch(c.leased, idx)
		c.leased = slices.Insert(c.leased, i, idx)
	}
	st.state = state
}

// dropWorker unregisters a worker and requeues everything it still held
// and no other holder is still executing.
func (c *Coordinator) dropWorker(w *remoteWorker, reason string) {
	c.mu.Lock()
	if c.workers[w.name] != w {
		c.mu.Unlock()
		return
	}
	delete(c.workers, w.name)
	c.gaugeWorkers.Set(int64(len(c.workers)))
	held := make([]int, 0, len(w.leases))
	for idx := range w.leases {
		held = append(held, idx)
	}
	sort.Ints(held)
	for _, idx := range held {
		st := &c.scen[idx]
		delete(st.holders, w.name)
		if st.state == stateLeased && len(st.holders) == 0 {
			c.requeueLocked(idx, w.name, fmt.Sprintf("worker %s lost: %s", w.name, reason))
		}
	}
	remaining := c.remaining
	c.mu.Unlock()

	c.ctrLeft.Inc()
	c.cfg.Telemetry.Emit(telemetry.Event{
		Layer: telemetry.LayerGrid, Kind: telemetry.KindWorker,
		Node: w.name, Detail: "left: " + reason})
	if remaining == 0 {
		c.signalDone()
	}
}

// sweep is the scheduler pass: expire overdue leases, clear exclusion
// sets that would deadlock a scenario, grant pending work to workers with
// room in their window, and — once nothing is pending — steal the
// longest-held leases for idle slots. Frames are sent after the lock is
// released, each worker's in one write.
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	// 1. Expire lease holders whose deadline passed without a heartbeat,
	// in index order; the scenario requeues only when its last holder
	// expires, which also takes it out of c.leased.
	for i := 0; i < len(c.leased); {
		idx := c.leased[i]
		st := &c.scen[idx]
		lastExpired := ""
		for name, h := range st.holders {
			if now.After(h.deadline) {
				c.ctrExpired.Inc()
				if w := c.workers[name]; w != nil {
					delete(w.leases, idx)
				}
				delete(st.holders, name)
				lastExpired = name
			}
		}
		if len(st.holders) == 0 && lastExpired != "" {
			c.requeueLocked(idx, lastExpired, fmt.Sprintf("lease expired on worker %s", lastExpired))
		}
		if st.state == stateLeased {
			i++
		}
	}
	// 2. Grant pending scenarios, lowest index first, to workers with room
	// in their window. Workers are visited in name order purely for
	// reproducible logs; artifacts do not depend on placement. With every
	// window full there is nothing to grant, so the scan is skipped.
	workers := make([]*remoteWorker, 0, len(c.workers))
	for _, w := range c.workers {
		workers = append(workers, w)
	}
	slices.SortFunc(workers, func(a, b *remoteWorker) int { return strings.Compare(a.name, b.name) })
	room := make([]int, len(workers))
	leases := make([][]*Frame, len(workers))
	totalRoom := 0
	for i, w := range workers {
		room[i] = max(0, c.windowLocked(w.slots)-len(w.leases))
		totalRoom += room[i]
	}
	for c.firstPending < len(c.scen) && c.scen[c.firstPending].state != statePending {
		c.firstPending++
	}
	unseen, granted := c.nPending, 0
	for idx := c.firstPending; idx < len(c.scen) && unseen > 0 && totalRoom > 0; idx++ {
		st := &c.scen[idx]
		if st.state != statePending {
			continue
		}
		unseen--
		if now.Before(st.notBefore) {
			continue
		}
		// A scenario every connected worker is excluded from would wait
		// forever; give it a fresh chance anywhere.
		if c.allExcludedLocked(st) {
			st.excluded = nil
		}
		for i, w := range workers {
			if room[i] == 0 || st.excluded[w.name] {
				continue
			}
			c.setState(idx, stateLeased)
			st.holders = map[string]*leaseHold{
				w.name: {deadline: now.Add(c.cfg.LeaseTTL), granted: now},
			}
			st.grants++
			w.leases[idx] = true
			if c.cfg.Journal != nil {
				c.cfg.Journal.Granted(idx, w.name, st.grants, false)
			}
			leases[i] = append(leases[i], &Frame{Type: FrameLease, Lease: &Lease{Scenario: c.cfg.Scenarios[idx], Grant: st.grants}})
			room[i]--
			totalRoom--
			granted++
			break
		}
	}
	// 3. Work stealing: the pending queue has drained but slots are idle —
	// re-grant the longest-held leases, oldest first, within the budget. A
	// duplicate is worth running only at once, so a steal goes to a free
	// slot, never into a worker's queue.
	stolen := 0
	if c.cfg.StealBudget > 0 && c.nPending == 0 {
		for i, w := range workers {
			for len(w.leases) < w.slots {
				idx := c.stealCandidateLocked(w.name, now)
				if idx < 0 {
					break
				}
				st := &c.scen[idx]
				st.steals++
				st.holders[w.name] = &leaseHold{deadline: now.Add(c.cfg.LeaseTTL), granted: now, steal: true}
				w.leases[idx] = true
				stolen++
				if c.cfg.Journal != nil {
					c.cfg.Journal.Granted(idx, w.name, st.grants, true)
				}
				leases[i] = append(leases[i], &Frame{Type: FrameLease, Lease: &Lease{Scenario: c.cfg.Scenarios[idx], Grant: st.grants, Steal: true}})
			}
		}
	}
	held := 0
	for _, w := range workers {
		held += len(w.leases)
	}
	c.gaugeLeases.Set(int64(held))
	remaining := c.remaining
	c.mu.Unlock()
	// Expiry above may have exhausted the last scenario's requeue budget.
	if remaining == 0 {
		c.signalDone()
	}
	c.ctrLeased.Add(uint64(granted))
	c.ctrStolen.Add(uint64(stolen))

	for i, w := range workers {
		if len(leases[i]) == 0 {
			continue
		}
		if c.cfg.Telemetry.Enabled() {
			for _, f := range leases[i] {
				c.cfg.Telemetry.Emit(telemetry.Event{
					Layer: telemetry.LayerGrid, Kind: telemetry.KindLease,
					Node: w.name, Detail: fmt.Sprintf("%s grant=%d steal=%v", f.Lease.Scenario.Name, f.Lease.Grant, f.Lease.Steal)})
			}
		}
		// A failed write needs no handling here: the worker's reader
		// goroutine sees the dead connection and requeues.
		_ = w.conn.write(leases[i]...)
	}
}

// stealCandidateLocked picks the leased scenario the named worker should
// steal: the oldest-granted lease the worker does not already hold, is not
// excluded from, whose steal budget is open, and whose current holders
// have all held it past StealAfter. Returns -1 when nothing qualifies.
// Called with c.mu held.
func (c *Coordinator) stealCandidateLocked(name string, now time.Time) int {
	best := -1
	var bestGrant time.Time
	for _, idx := range c.leased {
		st := &c.scen[idx]
		if st.excluded[name] || st.steals >= c.cfg.StealBudget {
			continue
		}
		if _, holding := st.holders[name]; holding {
			continue
		}
		oldest := st.oldestGrant()
		if now.Sub(oldest) < c.cfg.StealAfter {
			continue
		}
		if best < 0 || oldest.Before(bestGrant) {
			best, bestGrant = idx, oldest
		}
	}
	return best
}

// allExcludedLocked reports whether workers are connected and every one of
// them is excluded from st. Called with c.mu held.
func (c *Coordinator) allExcludedLocked(st *scenState) bool {
	if len(st.excluded) == 0 || len(c.workers) == 0 {
		return false
	}
	for name := range c.workers {
		if !st.excluded[name] {
			return false
		}
	}
	return true
}

// requeueLocked returns a lost scenario to the pending queue, excluding
// the worker that held it and applying the campaign backoff (doubled per
// requeue, jittered by the scenario seed so simultaneous requeues across
// workers spread out). Once the requeue budget is exhausted the scenario
// is recorded failed — the campaign still completes with a full result
// set. Called with c.mu held.
func (c *Coordinator) requeueLocked(idx int, worker, reason string) {
	st := &c.scen[idx]
	if st.state != stateLeased {
		return
	}
	st.exclude(worker)
	st.holders = nil
	if st.grants > c.cfg.Requeues {
		c.setState(idx, stateDone)
		res := campaign.ScenarioResult{
			Scenario: c.cfg.Scenarios[idx],
			Status:   campaign.StatusFailed,
			Err:      fmt.Sprintf("%s (requeue budget %d exhausted)", reason, c.cfg.Requeues),
			Attempts: st.grants,
		}
		c.results[idx] = res
		c.remaining--
		c.failed++
		if c.cfg.Store != nil {
			if err := c.cfg.Store.Put(res); err != nil && c.storeErr == nil {
				c.storeErr = err
			}
		}
		if c.cfg.Journal != nil {
			c.cfg.Journal.Requeued(idx, worker, st.grants, true)
			c.cfg.Journal.Completed(idx, campaign.StatusFailed)
		}
		c.ctrFailed.Inc()
		if c.cfg.Telemetry.Enabled() {
			c.cfg.Telemetry.Emit(telemetry.Event{
				Layer: telemetry.LayerGrid, Kind: telemetry.KindResult,
				Node: worker, Detail: fmt.Sprintf("%s status=failed: %s", c.cfg.Scenarios[idx].Name, reason)})
		}
		return
	}
	c.setState(idx, statePending)
	shift := st.grants - 1
	if shift < 0 {
		shift = 0
	} else if shift > 16 {
		shift = 16
	}
	backoff := c.cfg.Backoff << shift
	st.notBefore = time.Now().Add(backoff + campaign.RetryJitter(c.cfg.Scenarios[idx].Seed, st.grants, backoff))
	if c.cfg.Journal != nil {
		c.cfg.Journal.Requeued(idx, worker, st.grants, false)
	}
	c.ctrRequeued.Inc()
	if c.cfg.Telemetry.Enabled() {
		c.cfg.Telemetry.Emit(telemetry.Event{
			Layer: telemetry.LayerGrid, Kind: telemetry.KindRequeue,
			Node: worker, Detail: fmt.Sprintf("%s grant=%d: %s", c.cfg.Scenarios[idx].Name, st.grants, reason)})
	}
}

// signalDone closes the done channel exactly once.
func (c *Coordinator) signalDone() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.finished {
		select {
		case <-c.done:
		default:
			close(c.done)
		}
	}
}
