package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"attain/internal/campaign"
	"attain/internal/experiment"
	"attain/internal/grid"
	"attain/internal/gridsvc"
	"attain/internal/telemetry"
)

// The orchestration workloads run one campaign matrix, pass after pass,
// through one of the three campaign paths. The scenario body is a stub:
// real scenarios sleep on the scaled clock and hide everything the
// orchestration layers do, so the stub is what makes lease, journal,
// batch and store work show at all. One op is one scenario.

type orchPath int

const (
	orchRunner orchPath = iota // campaign.Runner, in process
	orchGrid                   // grid.RunLocal: coordinator and workers over loopback TCP
	orchServe                  // gridsvc behind HTTP: POST spec, poll to done, download results.jsonl
)

func (p orchPath) String() string {
	return [...]string{"campaign_runner", "campaign_grid", "campaign_serve"}[p]
}

// orchConfig is the matrix: 6 cells (3 profiles x 2 fail modes) x trials.
type orchConfig struct {
	trials    int
	minPasses int
}

// orchFull is 3,330 scenarios a pass. Passes are short so that a run holds
// a dozen of them even on the slowest path, and its median pass shrugs off
// a disturbed one.
var orchFull = orchConfig{trials: 555, minPasses: 3}

func (c orchConfig) spec(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"name":"bench-orch","kinds":["interruption"],"profiles":["floodlight","pox","ryu"],`+
		`"fail_modes":["safe","secure"],"trials":%d,"seed":%d,"timeout":"1m"}`, c.trials, seed))
}

// stubExecute is the fixed-cost scenario body: a few hundred nanoseconds of
// arithmetic on the scenario's seed, and an outcome that is a pure function
// of it, so every path must produce the same record for the same scenario.
func stubExecute(_ context.Context, sc campaign.Scenario) (*campaign.Outcome, error) {
	x := uint64(sc.Seed)
	for i := 0; i < 64; i++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
	}
	state := "sigma2"
	if x&4 != 0 {
		state = "sigma3"
	}
	return &campaign.Outcome{Interruption: &experiment.InterruptionResult{
		Profile: sc.Profile, FailMode: sc.FailMode,
		ExtToExtBefore: true, IntToExtBefore: true,
		ExtToInt: x&1 != 0, IntToExtAfter: x&2 != 0,
		FinalState: state, S2Disconnected: x&4 != 0,
	}}, nil
}

// orchPlan is what a campaign front end does before the first scenario
// runs: parse the spec, build and expand the matrix, open the store.
func orchPlan(spec []byte, dir string) (*campaign.Spec, []campaign.Scenario, *campaign.Store, error) {
	s, err := campaign.ParseSpec(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := s.Matrix()
	if err != nil {
		return nil, nil, nil, err
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		return nil, nil, nil, err
	}
	store, err := campaign.NewStore(dir)
	return s, scenarios, store, err
}

// canonicalDigest reads a results.jsonl stream, strips its wall-clock
// fields, and returns the digest and record count.
func canonicalDigest(data []byte) ([32]byte, int, error) {
	canon, err := campaign.CanonicalJSONL(data)
	if err != nil {
		return [32]byte{}, 0, err
	}
	return sha256.Sum256(canon), bytes.Count(canon, []byte("\n")), nil
}

// checkStubRecords re-derives every record's outcome from its scenario and
// checks the file says the same, independently of any campaign path.
func checkStubRecords(data []byte, scenarios []campaign.Scenario) (bad int, why string) {
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != len(scenarios) {
		return len(scenarios), fmt.Sprintf("results.jsonl has %d records, matrix has %d scenarios", len(lines), len(scenarios))
	}
	for i, line := range lines {
		var rec campaign.Record
		want, _ := stubExecute(context.Background(), scenarios[i])
		w := want.Interruption
		if err := json.Unmarshal(line, &rec); err != nil || rec.Index != i || rec.Name != scenarios[i].Name ||
			rec.Status != string(campaign.StatusOK) || rec.Interruption == nil ||
			rec.Interruption.ExtToInt != w.ExtToInt || rec.Interruption.IntToExtAfter != w.IntToExtAfter ||
			rec.Interruption.FinalState != w.FinalState {
			bad++
			if why == "" {
				why = fmt.Sprintf("record %d (%s) is not what the stub produces for its scenario", i, scenarios[i].Name)
			}
		}
	}
	return bad, why
}

// orchPass is one pass's measurements.
type orchPass struct {
	traced      bool
	plan        time.Duration
	wall, cpu   time.Duration
	submit      time.Duration
	status      []float64 // ms per GET status
	download    time.Duration
	resultBytes int
	journalSize int64
	counters    map[string]uint64
}

// runOrch runs passes of the matrix through one campaign path for the
// run's seconds. Before the first pass, campaign.Runner produces the
// reference results.jsonl; every pass's file must be canonically
// byte-identical to it, whichever path wrote it.
func runOrch(path orchPath, c orchConfig, rc *runCtx) error {
	root := rc.tr.begin("workload."+path.String(), 0)
	defer rc.tr.end(root)
	spec := c.spec(rc.seed)
	workers := runtime.GOMAXPROCS(0)

	// Reference pass, which is also where the records are checked one by
	// one against the stub.
	refDir := filepath.Join(rc.scratch, "reference")
	_, scenarios, store, err := orchPlan(spec, refDir)
	if err != nil {
		return err
	}
	if _, err := campaign.NewRunner(campaign.RunnerConfig{Workers: workers, Execute: stubExecute, Store: store}).
		Run(context.Background(), scenarios); err != nil {
		return err
	}
	refData, err := os.ReadFile(filepath.Join(refDir, campaign.ResultsFile))
	if err != nil {
		return err
	}
	refDigest, _, err := canonicalDigest(refData)
	if err != nil {
		return err
	}
	rc.rep.attempt(int64(len(scenarios)))
	if bad, why := checkStubRecords(refData, scenarios); bad > 0 {
		rc.rep.fail(int64(bad), "%s reference: %s", path, why)
	}
	n := float64(len(scenarios))

	// The service outlives its campaigns: one instance, one HTTP server.
	var svc *gridsvc.Service
	var srv *httptest.Server
	if path == orchServe {
		svc, err = gridsvc.New(gridsvc.Config{
			Root:    filepath.Join(rc.scratch, "serve"),
			Options: gridsvc.Options{Workers: workers, Execute: stubExecute},
		})
		if err != nil {
			return err
		}
		srv = httptest.NewServer(svc.Handler())
		defer srv.Close()
		defer svc.Shutdown()
	}

	var passes []orchPass
	start := time.Now()
	for i := 0; time.Since(start) < rc.seconds*85/100 || i < c.minPasses; i++ {
		p := orchPass{traced: rc.trace && i%2 == 1}
		var tr *tracer
		var tele *telemetry.Telemetry
		if p.traced {
			tr, tele = rc.tr, telemetry.New(telemetry.Options{})
		}
		span := tr.begin("campaign.pass", root)
		dir := filepath.Join(rc.scratch, fmt.Sprintf("pass-%d", i))
		var data []byte

		planStart := time.Now()
		_, scenarios, store, err := orchPlan(spec, dir)
		if err != nil {
			return err
		}
		p.plan = time.Since(planStart)

		cpu0, t0 := cpuTime(), time.Now()
		switch path {
		case orchRunner:
			id := tr.begin("campaign.Runner.Run", span)
			_, err = campaign.NewRunner(campaign.RunnerConfig{Workers: workers, Execute: stubExecute, Store: store}).
				Run(context.Background(), scenarios)
			tr.end(id)
		case orchGrid:
			id := tr.begin("grid.RunLocal", span)
			_, err = grid.RunLocal(context.Background(), grid.LocalConfig{
				Workers: workers,
				Coordinator: grid.CoordinatorConfig{
					Campaign: "bench-orch", Scenarios: scenarios, Store: store, Telemetry: tele,
				},
				Worker: grid.WorkerConfig{
					Slots: 2, BatchResults: grid.DefaultBatchResults, Telemetry: tele,
					Runner: campaign.RunnerConfig{Execute: stubExecute},
				},
			})
			tr.end(id)
			if tele != nil {
				p.counters = tele.Snapshot()
			}
		case orchServe:
			// The service plans and stores for itself; the harness's store
			// is not used on this path.
			if err := store.Abort(); err != nil {
				return err
			}
			data, err = p.serve(srv.URL, spec, tr, span)
		}
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		if path != orchServe {
			if data, err = os.ReadFile(filepath.Join(dir, campaign.ResultsFile)); err != nil {
				return err
			}
		}
		p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
		tr.end(span)

		// Oracle: canonical identity with the reference.
		rc.rep.attempt(int64(len(scenarios)))
		digest, records, err := canonicalDigest(data)
		switch {
		case err != nil:
			rc.rep.fail(int64(len(scenarios)), "%s pass %d: %v", path, i, err)
		case records != len(scenarios):
			rc.rep.fail(int64(len(scenarios)-records), "%s pass %d: %d of %d records", path, i, records, len(scenarios))
		case digest != refDigest:
			rc.rep.fail(int64(len(scenarios)), "%s pass %d: results.jsonl is not canonically identical to campaign.Runner's", path, i)
		}
		p.resultBytes = len(data)
		passes = append(passes, p)
		// Keep the scratch directory small: a pass's files are checked and
		// then of no further use.
		os.RemoveAll(dir)
	}

	col := func(keep func(orchPass) bool, v func(orchPass) float64) []float64 {
		return column(passes, keep, v)
	}
	all := func(orchPass) bool { return true }
	walls := col(all, func(p orchPass) float64 { return p.wall.Seconds() })
	rc.rep.set("setup_s", quietLow(col(all, func(p orchPass) float64 { return p.plan.Seconds() })))
	rc.rep.set("ops_per_s", n/quietLow(walls))
	rc.rep.set("latency_ms", 1e3*quietLow(walls))
	rc.rep.set("cpu_us_per_op", quietLow(col(all, func(p orchPass) float64 { return us(p.cpu) }))/n)
	rc.rep.set("peak_rss_mb", peakRSSMB())
	fmt.Fprintf(os.Stderr, "  %d passes of %d scenarios: %.0f scen/s (pass wall lower quartile %.1f ms; min %.1f, median %.1f, max %.1f)\n",
		len(passes), len(scenarios), n/quietLow(walls), 1e3*quietLow(walls), 1e3*quantile(walls, 0), 1e3*median(walls), 1e3*quantile(walls, 1))
	if !rc.trace {
		return nil
	}

	traced := func(p orchPass) bool { return p.traced }
	tw := median(col(traced, func(p orchPass) float64 { return p.wall.Seconds() }))
	uw := median(col(func(p orchPass) bool { return !p.traced }, func(p orchPass) float64 { return p.wall.Seconds() }))
	if uw > 0 {
		rc.rep.set("telemetry.trace_overhead_pct", 100*(tw-uw)/uw)
	}
	last := passes[len(passes)-1]
	for _, p := range passes {
		if p.traced {
			last = p
		}
	}
	switch path {
	case orchRunner:
		rc.rep.set("campaign.runner_us_per_scen", 1e6*tw/n)
	case orchGrid:
		rc.rep.set("grid.us_per_scen", 1e6*tw/n)
		rc.gridCounters(last.counters)
	case orchServe:
		rc.rep.set("gridsvc.us_per_scen", 1e6*tw/n)
		rc.rep.set("gridsvc.submit_ms", median(col(all, func(p orchPass) float64 { return ms(p.submit) })))
		var status []float64
		for _, p := range passes {
			status = append(status, p.status...)
		}
		rc.rep.set("gridsvc.status_ms", median(status))
		rc.rep.set("gridsvc.journal_bytes_per_scen", float64(last.journalSize)/n)
		rc.rep.set("gridsvc.artifact_mb_per_s", median(col(all, func(p orchPass) float64 {
			return float64(p.resultBytes) / (1 << 20) / p.download.Seconds()
		})))
		rc.gridCounters(last.counters)
	}
	return replayCampaignLayers(spec, rc, root)
}

// gridCounters reports the coordinator's and workers' own counts, as read
// from their telemetry registry (directly, or through the service's status).
func (rc *runCtx) gridCounters(snap map[string]uint64) {
	for _, name := range []string{"frames_sent", "frames_received", "scenarios_leased", "scenarios_stolen",
		"scenarios_requeued", "results_duplicate", "lease_expiries"} {
		rc.rep.set("grid."+name, float64(snap["grid."+name]))
	}
}

// serve runs one campaign through the HTTP API: submit the spec, poll the
// status until the campaign is done, download results.jsonl.
func (p *orchPass) serve(base string, spec []byte, tr *tracer, parent int) ([]byte, error) {
	var st gridsvc.CampaignStatus
	getJSON := func(method, url string, body io.Reader, want int) error {
		req, err := http.NewRequest(method, url, body)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, msg)
		}
		return json.NewDecoder(resp.Body).Decode(&st)
	}
	var err error
	p.submit = tr.timed("gridsvc.POST campaigns", parent, func() {
		err = getJSON("POST", base+"/api/campaigns", bytes.NewReader(spec), http.StatusCreated)
	})
	if err != nil {
		return nil, err
	}
	id := st.ID
	poll := tr.begin("gridsvc.poll to done", parent)
	deadline := time.Now().Add(2 * time.Minute)
	for st.State == gridsvc.StateRunning {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("campaign %s still running after 2m", id)
		}
		time.Sleep(10 * time.Millisecond)
		t0 := time.Now()
		if err := getJSON("GET", base+"/api/campaigns/"+id, nil, http.StatusOK); err != nil {
			return nil, err
		}
		p.status = append(p.status, ms(time.Since(t0)))
	}
	if st.State != gridsvc.StateDone {
		return nil, fmt.Errorf("campaign %s ended %s: %s", id, st.State, st.Error)
	}
	tr.end(poll)
	p.counters = st.Counters
	var data []byte
	p.download = tr.timed("gridsvc.GET results.jsonl", parent, func() {
		var resp *http.Response
		if resp, err = http.Get(base + "/api/campaigns/" + id + "/artifacts/" + campaign.ResultsFile); err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("download %s: %s", campaign.ResultsFile, resp.Status)
			return
		}
		data, err = io.ReadAll(resp.Body)
	})
	if err != nil {
		return nil, err
	}
	// The journal's size is read through the API too: the service's root is
	// its own business.
	var list []struct {
		Name string `json:"name"`
		Size int64  `json:"size"`
	}
	if resp, err := http.Get(base + "/api/campaigns/" + id + "/artifacts"); err == nil {
		json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
	}
	for _, a := range list {
		if a.Name == gridsvc.JournalFile {
			p.journalSize = a.Size
		}
	}
	return data, nil
}

// replayCampaignLayers times the campaign layers every path shares, one at
// a time: matrix expansion, the store's per-record and closing work, the
// grid's result-batch codec, and the service's journal.
func replayCampaignLayers(spec []byte, rc *runCtx, parent int) error {
	s, err := campaign.ParseSpec(spec)
	if err != nil {
		return err
	}
	m, err := s.Matrix()
	if err != nil {
		return err
	}
	var scenarios []campaign.Scenario
	d := rc.tr.timed("campaign.Matrix.Expand", parent, func() { scenarios = m.Expand() })
	n := float64(len(scenarios))
	rc.rep.set("campaign.expand_us_per_scen", us(d)/n)

	results := make([]campaign.ScenarioResult, len(scenarios))
	for i, sc := range scenarios {
		out, _ := stubExecute(context.Background(), sc)
		results[i] = campaign.ScenarioResult{Scenario: sc, Outcome: out, Status: campaign.StatusOK, Attempts: 1, Started: time.Now()}
	}
	store, err := campaign.NewStore(filepath.Join(rc.scratch, "replay-store"))
	if err != nil {
		return err
	}
	d = rc.tr.timed("campaign.Store.Put", parent, func() {
		for i := range results {
			if err = store.Put(results[i]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	rc.rep.set("campaign.store_put_us_per_scen", us(d)/n)
	d = rc.tr.timed("campaign.Store.Finish", parent, func() { err = store.Finish(&campaign.Report{Results: results}) })
	if err != nil {
		return err
	}
	rc.rep.set("campaign.store_finish_ms", ms(d))

	batch := results[:min(grid.DefaultBatchResults, len(results))]
	const rounds = 200
	d = rc.tr.timed("grid.EncodeResultBatch+Decode", parent, func() {
		for i := 0; i < rounds; i++ {
			var b *grid.ResultBatch
			if b, err = grid.EncodeResultBatch(batch); err != nil {
				return
			}
			if _, err = b.Decode(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	rc.rep.set("grid.encode_batch_us", us(d)/rounds)

	jdir := filepath.Join(rc.scratch, "replay-journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return err
	}
	j, err := gridsvc.OpenJournal(jdir)
	if err != nil {
		return err
	}
	d = rc.tr.timed("gridsvc.Journal", parent, func() {
		for i := range scenarios {
			j.Granted(i, "worker-1", 1, false)
			j.Completed(i, campaign.StatusOK)
		}
	})
	rc.rep.set("gridsvc.journal_us_per_event", us(d)/(2*n))
	if err := j.Err(); err != nil {
		return err
	}
	return j.Close()
}
