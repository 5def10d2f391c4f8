package gridsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"attain/internal/campaign"
	"attain/internal/experiment"
	"attain/internal/grid"
)

// svcExec mirrors the grid tests' deterministic executor: outcomes derive
// purely from the scenario seed, so interrupted-and-resumed runs must
// reproduce an uninterrupted run byte-for-byte.
func svcExec(ctx context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
	rng := rand.New(rand.NewSource(sc.Seed))
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

// testSpec is a 12-scenario interruption matrix (3 profiles × 2 fail
// modes × 2 trials).
const testSpec = `{"name":"svc-test","kinds":["interruption"],"trials":2,"seed":5}`

func testOptions(exec campaign.ExecuteFunc) Options {
	return Options{
		Workers:  2,
		Slots:    2,
		LeaseTTL: 2 * time.Second,
		Execute:  exec,
	}
}

// singleProcessRun executes the spec in-process and returns the canonical
// results.jsonl — the byte-identity reference.
func singleProcessRun(t *testing.T, spec string) []byte {
	t.Helper()
	parsed, err := campaign.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := parsed.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := campaign.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := campaign.NewRunner(campaign.RunnerConfig{Workers: 4, Execute: svcExec, Store: store})
	if _, err := runner.Run(context.Background(), matrix.Expand()); err != nil {
		t.Fatal(err)
	}
	return canonical(t, dir)
}

func canonical(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, campaign.ResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := campaign.CanonicalJSONL(data)
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

func waitDone(t *testing.T, c *Campaign, timeout time.Duration) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(timeout):
		t.Fatalf("campaign %s did not finish within %s (state %s)", c.ID(), timeout, c.State())
	}
}

// TestJournalReplayTornTail pins the journal's prefix-validation recovery:
// entries after a torn or corrupt line are discarded, everything before is
// replayed.
func TestJournalReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Granted(0, "w1", 1, false)
	j.Granted(1, "w1", 1, false)
	j.Requeued(1, "w1", 1, false)
	j.Granted(1, "w2", 2, false)
	j.Granted(2, "w2", 1, true) // steal grant: must not count toward budgets
	j.Completed(0, campaign.StatusOK)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the tail: one garbage line, then a torn partial write.
	f, err := os.OpenFile(filepath.Join(dir, JournalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"op\":\"grant\",\"idx\":9,\"worker\":\"ghost\",\"grant\":7}corrupt\n{\"op\":\"gr"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	grants, excluded, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if grants[0] != 1 || grants[1] != 2 {
		t.Errorf("grants = %v, want {0:1, 1:2}", grants)
	}
	if _, ok := grants[9]; ok {
		t.Error("replay accepted an entry past the corrupt line")
	}
	if grants[2] != 0 {
		t.Errorf("steal grant leaked into the requeue budget: grants[2] = %d", grants[2])
	}
	if len(excluded[1]) != 1 || excluded[1][0] != "w1" {
		t.Errorf("excluded = %v, want {1:[w1]}", excluded)
	}
}

// TestServiceSubmitLifecycle drives the full HTTP surface: submit, poll
// status, list, SSE stream, artifact listing and download — and checks the
// downloaded results.jsonl is byte-identical to a single-process run.
func TestServiceSubmitLifecycle(t *testing.T) {
	svc, err := New(Config{Root: t.TempDir(), Options: testOptions(svcExec)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Bad specs are rejected up front.
	resp, err := http.Post(ts.URL+"/api/campaigns", "application/json", strings.NewReader(`{"kinds":["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec → %d, want 400", resp.StatusCode)
	}

	// Submit the real campaign.
	resp, err = http.Post(ts.URL+"/api/campaigns", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	var created CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit → %d, want 201", resp.StatusCode)
	}
	if created.ID == "" || created.Grid.Total != 12 {
		t.Fatalf("created = %+v, want an ID and 12 scenarios", created)
	}

	c, ok := svc.Get(created.ID)
	if !ok {
		t.Fatalf("campaign %s not registered", created.ID)
	}
	waitDone(t, c, 30*time.Second)
	if c.State() != StateDone {
		t.Fatalf("state = %s (err=%v), want done", c.State(), c.Err())
	}

	// Status reflects completion.
	var status CampaignStatus
	getJSON(t, ts.URL+"/api/campaigns/"+created.ID, &status)
	if status.State != StateDone || status.Grid.Done != 12 || status.Grid.Failed != 0 {
		t.Errorf("status = %+v, want done 12/12", status)
	}
	var list []CampaignStatus
	getJSON(t, ts.URL+"/api/campaigns", &list)
	if len(list) != 1 || list[0].ID != created.ID {
		t.Errorf("list = %+v, want exactly the submitted campaign", list)
	}

	// The SSE stream ends with a done event once the campaign is over.
	sse := get(t, ts.URL+"/api/campaigns/"+created.ID+"/events")
	if !bytes.Contains(sse, []byte("event: done")) {
		t.Errorf("SSE stream lacks the done event:\n%s", sse)
	}

	// Artifact listing and download.
	var artifacts []struct {
		Name string `json:"name"`
		Size int64  `json:"size"`
	}
	getJSON(t, ts.URL+"/api/campaigns/"+created.ID+"/artifacts", &artifacts)
	names := map[string]bool{}
	for _, a := range artifacts {
		names[a.Name] = true
	}
	for _, want := range []string{campaign.ResultsFile, campaign.SummaryFile, SpecFile, JournalFile} {
		if !names[want] {
			t.Errorf("artifact listing lacks %s (have %v)", want, names)
		}
	}
	results := get(t, ts.URL+"/api/campaigns/"+created.ID+"/artifacts/"+campaign.ResultsFile)
	gotCanon, err := campaign.CanonicalJSONL(results)
	if err != nil {
		t.Fatal(err)
	}
	if want := singleProcessRun(t, testSpec); !bytes.Equal(gotCanon, want) {
		t.Errorf("downloaded results.jsonl diverges from single-process run:\n--- got\n%s\n--- want\n%s", gotCanon, want)
	}

	// Path traversal is rejected.
	resp, err = http.Get(ts.URL + "/api/campaigns/" + created.ID + "/artifacts/../" + created.ID + "/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Go's mux normalizes the path; either a 400 (our check) or a
	// redirect-away is fine — anything but serving through the traversal.
	if resp.StatusCode == http.StatusOK {
		body := get(t, ts.URL+"/api/campaigns/"+created.ID+"/artifacts/..%2fspec.json")
		if bytes.Contains(body, []byte("interruption")) {
			t.Error("artifact endpoint served a path-traversal request")
		}
	}

	// Unknown campaigns are 404s.
	resp, err = http.Get(ts.URL + "/api/campaigns/c9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown campaign → %d, want 404", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal(get(t, url), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServiceKillRestartByteIdentical is the flagship checkpoint/restart
// check: a campaign is crash-stopped mid-run (journal + results prefix on
// disk, no finalization), the journal tail is additionally corrupted as a
// SIGKILL would, and a fresh service over the same root — with zero
// surviving workers — resumes and completes it. The final results.jsonl
// must be byte-identical to an uninterrupted single-process run, and the
// already-recorded scenarios must not re-execute.
func TestServiceKillRestartByteIdentical(t *testing.T) {
	root := t.TempDir()
	gate := make(chan struct{})
	gatedExec := func(ctx context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		if sc.Index >= 3 {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return svcExec(ctx, sc)
	}
	svc, err := New(Config{Root: root, Options: testOptions(gatedExec)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := svc.Submit([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	dir := c.Dir()

	// Wait for scenarios 0–2 to reach results.jsonl, then crash-stop with
	// everything else in flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, _ := os.ReadFile(filepath.Join(dir, campaign.ResultsFile))
		if bytes.Count(data, []byte("\n")) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prefix never reached 3 records")
		}
		time.Sleep(5 * time.Millisecond)
	}
	svc.Shutdown()
	close(gate)
	if c.State() != StateAborted {
		t.Fatalf("state after shutdown = %s, want aborted", c.State())
	}
	if _, err := os.Stat(filepath.Join(dir, campaign.SummaryFile)); err == nil {
		t.Fatal("aborted campaign has a summary — abort finalized the store")
	}

	// A SIGKILL can tear the journal's final write; simulate the worst.
	f, err := os.OpenFile(filepath.Join(dir, JournalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"grant","idx":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart: a fresh service over the same root auto-resumes. No worker
	// from the first incarnation survives.
	var mu sync.Mutex
	executed := map[int]bool{}
	countingExec := func(ctx context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		mu.Lock()
		executed[sc.Index] = true
		mu.Unlock()
		return svcExec(ctx, sc)
	}
	svc2, err := New(Config{Root: root, Options: testOptions(countingExec)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	c2, ok := svc2.Get(c.ID())
	if !ok {
		t.Fatalf("restarted service did not resume campaign %s", c.ID())
	}
	waitDone(t, c2, 30*time.Second)
	if c2.State() != StateDone {
		t.Fatalf("resumed campaign state = %s (err=%v), want done", c2.State(), c2.Err())
	}

	mu.Lock()
	for idx := 0; idx < 3; idx++ {
		if executed[idx] {
			t.Errorf("recorded scenario %d re-executed after restart", idx)
		}
	}
	mu.Unlock()

	if got, want := canonical(t, dir), singleProcessRun(t, testSpec); !bytes.Equal(got, want) {
		t.Errorf("restarted results.jsonl diverges from uninterrupted run:\n--- got\n%s\n--- want\n%s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, campaign.SummaryFile)); err != nil {
		t.Error("resumed campaign did not finalize artifacts")
	}
}

// TestServiceRestartAfterDone restarts the service over a root whose
// campaign already completed: it must load as done without re-running
// anything.
func TestServiceRestartAfterDone(t *testing.T) {
	root := t.TempDir()
	svc, err := New(Config{Root: root, Options: testOptions(svcExec)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := svc.Submit([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, 30*time.Second)
	svc.Shutdown()

	// poisonExec flags any execution during the restart scan; the allow
	// flag opens it back up for the deliberate fresh submission below.
	var allowExec atomic.Bool
	poisonExec := func(ctx context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		if !allowExec.Load() {
			t.Errorf("scenario %d executed on restart of a finished campaign", sc.Index)
		}
		return svcExec(ctx, sc)
	}
	svc2, err := New(Config{Root: root, Options: testOptions(poisonExec)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	c2, ok := svc2.Get(c.ID())
	if !ok {
		t.Fatalf("finished campaign %s not registered after restart", c.ID())
	}
	if c2.State() != StateDone {
		t.Errorf("state = %s, want done", c2.State())
	}
	st := c2.Status()
	if st.Grid.Done != 12 || !st.Grid.Finished {
		t.Errorf("loaded status = %+v, want 12 done, finished", st.Grid)
	}
	// New submissions must not collide with the loaded campaign's ID.
	allowExec.Store(true)
	c3, err := svc2.Submit([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if c3.ID() == c.ID() {
		t.Errorf("ID collision: new campaign reused %s", c.ID())
	}
	waitDone(t, c3, 30*time.Second)
}

// TestServiceLargeCampaignStreams runs a 10⁵-scenario campaign through
// the batched result path with outcome dropping on, verifying the full
// record set lands through RESULT_BATCH frames (that DropOutcomes leaves
// the coordinator's results outcome-free is grid's
// TestCoordinatorDropOutcomes).
// Under the race detector the matrix shrinks to 20k (same mechanism,
// ~5x the runtime overhead).
func TestServiceLargeCampaignStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("large-campaign streaming test: skipped in -short mode")
	}
	trials := 100000
	if raceEnabled {
		trials = 20000
	}
	spec := fmt.Sprintf(`{"name":"big","kinds":["interruption"],"profiles":["floodlight"],"fail_modes":["safe"],"trials":%d,"seed":9}`, trials)
	parsed, err := campaign.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SpecFile), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Workers:      4,
		Slots:        8,
		LeaseTTL:     10 * time.Second,
		DropOutcomes: true,
		Execute:      svcExec,
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := StartCampaign("big", dir, parsed, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, 120*time.Second)
	if c.State() != StateDone {
		t.Fatalf("state = %s (err=%v), want done", c.State(), c.Err())
	}
	// The finished campaign answers from its kept snapshot; the report and
	// the coordinator behind it are released (TestServiceReleasesFinishedCampaigns).
	if st := c.Status().Grid; st.Done != trials || st.Failed != 0 || !st.Finished {
		t.Fatalf("final status = %+v, want %d done, none failed, finished", st, trials)
	}
	data, err := os.ReadFile(filepath.Join(dir, campaign.ResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte("\n")); got != trials {
		t.Errorf("results.jsonl has %d records, want %d", got, trials)
	}
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	t.Logf("heap: before=%dMB after=%dMB (%d scenarios, batch=%d)",
		before.HeapAlloc>>20, after.HeapAlloc>>20, trials, opts.batchResults())
	snap := c.Status().Counters
	if snap["grid.worker.batches_sent"] < 10 {
		t.Errorf("batches_sent = %d, want >= 10 (streaming path not engaged)", snap["grid.worker.batches_sent"])
	}
}

// TestOptionsDefaults pins the Options knob semantics: zero means "grid
// default", negative means "off" for steal/batch, and explicit values
// pass through.
func TestOptionsDefaults(t *testing.T) {
	var zero Options
	if got := zero.workers(); got != 2 {
		t.Errorf("zero workers() = %d, want 2", got)
	}
	if got := zero.stealBudget(); got != grid.DefaultStealBudget {
		t.Errorf("zero stealBudget() = %d, want %d", got, grid.DefaultStealBudget)
	}
	if got := zero.batchResults(); got != grid.DefaultBatchResults {
		t.Errorf("zero batchResults() = %d, want %d", got, grid.DefaultBatchResults)
	}
	zero.logf("dropped: no sink") // nil Logf must be a no-op

	set := Options{Workers: 5, StealBudget: 7, BatchResults: 9}
	if set.workers() != 5 || set.stealBudget() != 7 || set.batchResults() != 9 {
		t.Errorf("explicit options altered: %d/%d/%d", set.workers(), set.stealBudget(), set.batchResults())
	}
	off := Options{StealBudget: -1, BatchResults: -1}
	if off.stealBudget() != 0 || off.batchResults() != 0 {
		t.Errorf("negative knobs not disabled: steal=%d batch=%d", off.stealBudget(), off.batchResults())
	}
}

// TestJournalAdoptedAndClosedWrites covers the adopt op and the sticky
// write-error path (appends after Close must surface via Err, not panic).
func TestJournalAdoptedAndClosedWrites(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Granted(0, "w1", 1, false)
	j.Adopted(0, "w1")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"op":"adopt"`)) {
		t.Fatalf("journal missing adopt entry: %s", data)
	}
	// Adopt entries are bookkeeping for the operator; replay ignores them.
	grants, _, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if grants[0] != 1 {
		t.Errorf("grants[0] = %d, want 1", grants[0])
	}
}

// TestServiceStopEndpointAbortsResumably submits a campaign whose
// executor blocks, stops it over HTTP, and verifies the campaign lands
// in the resumable aborted state with Err unset.
func TestServiceStopEndpointAbortsResumably(t *testing.T) {
	gate := make(chan struct{})
	blockExec := func(ctx context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
		if sc.Index >= 2 {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
		return svcExec(ctx, sc)
	}
	defer close(gate)
	svc, err := New(Config{Root: t.TempDir(), Options: testOptions(blockExec)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/campaigns", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Post(ts.URL+"/api/campaigns/"+st.ID+"/stop", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var stopped CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&stopped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || stopped.State != StateAborted {
		t.Fatalf("stop returned %s state %q, want 200 aborted", resp.Status, stopped.State)
	}
	c, _ := svc.Get(st.ID)
	if c.Err() != nil {
		t.Errorf("aborted campaign has error %v, want nil", c.Err())
	}
	// Stopping an already-stopped campaign is a no-op, not an error.
	resp, err = http.Post(ts.URL+"/api/campaigns/"+st.ID+"/stop", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("second stop returned %s, want 200", resp.Status)
	}
	// No summary file: the directory stays resumable.
	if _, err := os.Stat(filepath.Join(c.Dir(), campaign.SummaryFile)); err == nil {
		t.Error("aborted campaign wrote a summary (would be loaded as done)")
	}
}

// TestServiceReleasesFinishedCampaigns: a service lives across campaigns,
// so a finished one must cost it next to nothing. Ten 3,000-scenario
// campaigns run back to back through one Service; the live heap after the
// tenth may exceed the heap after the first by far less than the several
// megabytes one campaign's coordinator, report and telemetry ring hold
// (they used to stay for the life of the service), and a finished
// campaign's status and counters still answer.
func TestServiceReleasesFinishedCampaigns(t *testing.T) {
	const spec = `{"name":"leak","kinds":["interruption"],"trials":500,"seed":5}`
	const scenarios = 3000
	svc, err := New(Config{Root: t.TempDir(), Options: testOptions(svcExec)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second pass frees what sync.Pools held through the first
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var first *Campaign
	var afterFirst uint64
	for i := 0; i < 10; i++ {
		c, err := svc.Submit([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, c, 60*time.Second)
		if c.State() != StateDone {
			t.Fatalf("campaign %d state = %s (err=%v), want done", i, c.State(), c.Err())
		}
		if i == 0 {
			first, afterFirst = c, liveHeap()
		}
	}
	if grown := int64(liveHeap()) - int64(afterFirst); grown > 2<<20 {
		t.Errorf("live heap grew %d KB over nine finished campaigns, want under 2048 (a finished campaign keeps its coordinator?)", grown>>10)
	}
	st := first.Status()
	if st.State != StateDone || st.Grid.Total != scenarios || st.Grid.Done != scenarios || st.Grid.Failed != 0 || !st.Grid.Finished {
		t.Errorf("finished campaign status = %+v, want done %d/%d", st, scenarios, scenarios)
	}
	if got := st.Counters["grid.scenarios_completed"]; got != scenarios || st.ResultsPerSec <= 0 || st.ElapsedMS <= 0 {
		t.Errorf("finished campaign reports completed=%d results/s=%.0f elapsed=%dms, want %d completed and its measured rate",
			got, st.ResultsPerSec, st.ElapsedMS, scenarios)
	}
	if st.GridAddr != "" {
		t.Errorf("finished campaign still advertises grid address %s", st.GridAddr)
	}
}
