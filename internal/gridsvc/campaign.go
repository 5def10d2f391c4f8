package gridsvc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"attain/internal/campaign"
	"attain/internal/grid"
	"attain/internal/telemetry"
)

// SpecFile is the submitted campaign spec, persisted verbatim in the
// campaign directory so a restarted service re-expands the identical
// matrix.
const SpecFile = "spec.json"

// State is a campaign's lifecycle phase.
type State string

// Campaign states. An aborted campaign (service shutdown, explicit stop)
// is resumable — its journal and results prefix are intact; a failed one
// hit an infrastructure error.
const (
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	StateAborted State = "aborted"
)

// Options tunes how the service executes campaigns.
type Options struct {
	// Workers is how many in-process grid workers each campaign gets
	// (default 2). Slots is per-worker parallelism (default 2); a spec's
	// "workers" knob overrides Slots, matching its single-process meaning
	// of total parallelism per worker process.
	Workers int
	Slots   int
	// LeaseTTL, StealBudget, StealAfter follow grid's defaults; the
	// service always enables stealing (set StealBudget < 0 to disable).
	LeaseTTL    time.Duration
	StealBudget int
	StealAfter  time.Duration
	// BatchResults defaults to grid.DefaultBatchResults; < 0 disables
	// batching (one result per RESULT_BATCH frame).
	BatchResults int
	// DropOutcomes keeps coordinator memory flat on huge campaigns: each
	// outcome is released once its record is on disk, so the final CSV
	// aggregates cover only what completed after the last restart.
	DropOutcomes bool
	// Execute overrides scenario execution (tests); nil = campaign.Execute.
	Execute campaign.ExecuteFunc
	// Logf, when set, receives service log lines.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 2
}

func (o Options) stealBudget() int {
	switch {
	case o.StealBudget < 0:
		return 0
	case o.StealBudget == 0:
		return grid.DefaultStealBudget
	default:
		return o.StealBudget
	}
}

func (o Options) batchResults() int {
	switch {
	case o.BatchResults < 0:
		return 0
	case o.BatchResults == 0:
		return grid.DefaultBatchResults
	default:
		return o.BatchResults
	}
}

// Campaign is one durable campaign run: a grid coordinator journaling to
// the campaign directory, plus the service's in-process workers attached
// over loopback TCP (external workers can join at GridAddr too).
type Campaign struct {
	id   string
	dir  string
	spec *campaign.Spec
	addr string

	started time.Time
	done    chan struct{}

	mu    sync.Mutex
	state State
	err   error
	// co and tel are set only while the campaign runs. A terminal state
	// keeps what Status still answers from — the coordinator's last
	// snapshot, the counters and the elapsed time, as they stood at the
	// end — and releases the coordinator (scenarios, results, outcomes)
	// and the telemetry ring, so a long-lived service holds a few hundred
	// bytes per finished campaign rather than its whole matrix.
	co       *grid.Coordinator
	tel      *telemetry.Telemetry
	final    grid.StatusSnapshot
	counters map[string]uint64
	elapsed  time.Duration
}

// CampaignStatus is the JSON shape of the status endpoints.
type CampaignStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State State  `json:"state"`
	// GridAddr is where external grid workers can attach while running.
	GridAddr  string `json:"grid_addr,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	// Grid is the coordinator's live snapshot: totals, per-worker lease
	// ages, queue depths.
	Grid grid.StatusSnapshot `json:"grid"`
	// Counters is the campaign's telemetry registry (scenarios leased /
	// completed / requeued / stolen, frames sent/received, ...).
	Counters map[string]uint64 `json:"counters,omitempty"`
	// ResultsPerSec and FramesPerSec are computed over the elapsed wall
	// time since the (re)start.
	ResultsPerSec float64 `json:"results_per_sec,omitempty"`
	FramesPerSec  float64 `json:"frames_per_sec,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// StartCampaign launches (resume=false) or resumes (resume=true) the
// campaign stored in dir. The spec must already be persisted there; on
// resume, the journal and results.jsonl prefix seed the coordinator so
// finished scenarios are not re-run.
func StartCampaign(id, dir string, spec *campaign.Spec, opts Options, resume bool) (*Campaign, error) {
	matrix, err := spec.Matrix()
	if err != nil {
		return nil, err
	}
	scenarios := matrix.Expand()
	if len(scenarios) == 0 {
		return nil, errors.New("gridsvc: spec expands to zero scenarios")
	}

	var store *campaign.Store
	var restore *grid.Restore
	if resume {
		var recorded []campaign.Status
		store, recorded, err = campaign.ResumeStore(dir)
		if err != nil {
			return nil, err
		}
		grants, excluded, err := ReplayJournal(dir)
		if err != nil {
			store.Abort()
			return nil, err
		}
		done := make(map[int]campaign.Status, len(recorded))
		for i, status := range recorded {
			done[i] = status
		}
		restore = &grid.Restore{Done: done, Grants: grants, Excluded: excluded}
		opts.logf("campaign %s: resuming with %d/%d scenarios recorded", id, len(done), len(scenarios))
	} else {
		store, err = campaign.NewStore(dir)
		if err != nil {
			return nil, err
		}
	}
	journal, err := OpenJournal(dir)
	if err != nil {
		store.Abort()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		journal.Close()
		store.Abort()
		return nil, fmt.Errorf("gridsvc: campaign listener: %w", err)
	}

	tel := telemetry.New(telemetry.Options{})
	runner := spec.RunnerConfig()
	co := grid.NewCoordinator(grid.CoordinatorConfig{
		Campaign:     id,
		Scenarios:    scenarios,
		Store:        store,
		LeaseTTL:     opts.LeaseTTL,
		StealBudget:  opts.stealBudget(),
		StealAfter:   opts.StealAfter,
		Runner:       runner,
		Journal:      journal,
		Restore:      restore,
		DropOutcomes: opts.DropOutcomes,
		Telemetry:    tel,
	})

	c := &Campaign{
		id: id, dir: dir, spec: spec, tel: tel, co: co,
		addr:    ln.Addr().String(),
		started: time.Now(),
		done:    make(chan struct{}),
		state:   StateRunning,
	}

	// In-process workers ride RunLoop: if the coordinator restarts (new
	// Campaign, same machine) they are replaced wholesale, but against a
	// live coordinator they survive transient connection loss and re-adopt
	// their leases.
	slots := opts.Slots
	if spec.Workers > 0 {
		slots = spec.Workers
	}
	if slots < 1 {
		slots = 2
	}
	wctx, cancelWorkers := context.WithCancel(context.Background())
	for i := 1; i <= opts.workers(); i++ {
		w := grid.NewWorker(grid.WorkerConfig{
			Name:         fmt.Sprintf("%s-w%d", id, i),
			Slots:        slots,
			BatchResults: opts.batchResults(),
			Runner:       campaign.RunnerConfig{Execute: opts.Execute},
			Telemetry:    tel,
		})
		go w.RunLoop(wctx, c.addr)
	}

	go func() {
		_, err := co.Serve(context.Background(), ln)
		cancelWorkers()
		if jerr := journal.Err(); err == nil && jerr != nil {
			err = jerr
		}
		journal.Close()
		c.mu.Lock()
		switch {
		case errors.Is(err, grid.ErrAborted):
			c.state = StateAborted
		case err != nil:
			c.state = StateFailed
			c.err = err
		default:
			c.state = StateDone
		}
		c.final, c.counters, c.elapsed = co.Status(), tel.Snapshot(), time.Since(c.started)
		c.co, c.tel = nil, nil
		c.mu.Unlock()
		opts.logf("campaign %s: %s", id, c.State())
		close(c.done)
	}()
	return c, nil
}

// loadCampaign registers an already-finished (or unresumable) campaign
// directory without running anything.
func loadCampaign(id, dir string, spec *campaign.Spec, state State, err error) *Campaign {
	c := &Campaign{
		id: id, dir: dir, spec: spec,
		done:  make(chan struct{}),
		state: state,
		err:   err,
	}
	close(c.done)
	completed, failed := countRecords(dir)
	c.final = grid.StatusSnapshot{
		Campaign: id, Total: completed, Done: completed,
		Failed: failed, Finished: true,
	}
	return c
}

// countRecords scans results.jsonl for record/failure counts (loaded
// campaigns only — running ones report live coordinator state).
func countRecords(dir string) (completed, failed int) {
	f, err := os.Open(filepath.Join(dir, campaign.ResultsFile))
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	scan := bufio.NewScanner(f)
	scan.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for scan.Scan() {
		line := bytes.TrimSpace(scan.Bytes())
		if len(line) == 0 {
			continue
		}
		completed++
		if bytes.Contains(line, []byte(`"status":"failed"`)) {
			failed++
		}
	}
	return completed, failed
}

// ID returns the campaign's service-assigned identifier.
func (c *Campaign) ID() string { return c.id }

// Dir returns the campaign's artifact directory.
func (c *Campaign) Dir() string { return c.dir }

// Done closes when the campaign reaches a terminal state.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// State returns the lifecycle phase.
func (c *Campaign) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Err returns the campaign's terminal error, if any.
func (c *Campaign) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stop aborts a running campaign crash-equivalently: artifacts stay a
// resumable prefix and the journal survives, so the next service start
// resumes it. Stopping a finished campaign is a no-op. Blocks until the
// coordinator has shut down.
func (c *Campaign) Stop() {
	c.mu.Lock()
	co := c.co
	c.mu.Unlock()
	if co != nil {
		co.Abort()
	}
	<-c.done
}

// Status assembles the status snapshot: live from the coordinator and the
// telemetry registry while the campaign runs, from what was kept of them
// once it has ended.
func (c *Campaign) Status() CampaignStatus {
	c.mu.Lock()
	st := CampaignStatus{
		ID:       c.id,
		State:    c.state,
		Grid:     c.final,
		Counters: c.counters,
	}
	if c.spec != nil {
		st.Name = c.spec.Name
	}
	if c.err != nil {
		st.Error = c.err.Error()
	}
	co, tel, elapsed := c.co, c.tel, c.elapsed
	c.mu.Unlock()

	if co != nil {
		st.Grid, st.Counters, elapsed = co.Status(), tel.Snapshot(), time.Since(c.started)
	}
	if st.State == StateRunning {
		st.GridAddr = c.addr
	}
	st.ElapsedMS = elapsed.Milliseconds()
	if secs := elapsed.Seconds(); secs > 0 && st.Counters != nil {
		st.ResultsPerSec = float64(st.Counters["grid.scenarios_completed"]) / secs
		st.FramesPerSec = float64(st.Counters["grid.frames_sent"]+st.Counters["grid.frames_received"]) / secs
	}
	return st
}
