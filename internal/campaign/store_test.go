package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"attain/internal/dataplane"
	"attain/internal/experiment"
	"attain/internal/monitor"
	"attain/internal/switchsim"
)

func readArtifact(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestStoreStreamsRecordsInIndexOrder(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := testScenarios(5)
	// Complete out of order, as a parallel pool would.
	for _, i := range []int{3, 0, 4, 1, 2} {
		res := ScenarioResult{Scenario: scenarios[i], Status: StatusOK, Attempts: 1, Outcome: fakeOutcome(scenarios[i])}
		if err := store.Put(res); err != nil {
			t.Fatal(err)
		}
	}
	report := &Report{}
	if err := store.Finish(report); err != nil {
		t.Fatal(err)
	}
	var indexes []int
	for _, line := range bytes.Split(bytes.TrimSpace(readArtifact(t, dir, ResultsFile)), []byte("\n")) {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, rec.Index)
	}
	for i, idx := range indexes {
		if idx != i {
			t.Fatalf("JSONL order = %v, want ascending from 0", indexes)
		}
	}
}

// stochasticExec derives a fake outcome purely from the scenario seed, the
// way a real run's stochastic rules would — same seed, same metrics.
func stochasticExec(ctx context.Context, sc Scenario) (*Outcome, error) {
	rng := rand.New(rand.NewSource(sc.Seed))
	out := fakeOutcome(sc)
	for i := 0; i < 4; i++ {
		out.Suppression.Iperf.Trials = append(out.Suppression.Iperf.Trials,
			fakeIperfTrial(50+rng.Float64()*40))
		out.Suppression.Ping.Trials = append(out.Suppression.Ping.Trials,
			monitor.PingTrial{Seq: i + 1, OK: true, RTT: time.Duration(1+rng.Intn(5)) * time.Millisecond})
	}
	out.Suppression.FlowModsDropped = uint64(rng.Intn(100))
	return out, nil
}

func runDeterministicCampaign(t *testing.T, seed int64, workers int) []byte {
	t.Helper()
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := Matrix{Seed: seed, Trials: 2}
	r := NewRunner(RunnerConfig{Workers: workers, Execute: stochasticExec, Store: store})
	if _, err := r.Run(context.Background(), m.Expand()); err != nil {
		t.Fatal(err)
	}
	canon, err := CanonicalJSONL(readArtifact(t, dir, ResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// TestCampaignJSONLDeterministicUnderSameSeed is the determinism guard:
// two campaign runs with the same seed must produce byte-identical JSONL
// artifacts (modulo the wall-clock fields), regardless of worker count or
// completion interleaving; a different seed must change them.
func TestCampaignJSONLDeterministicUnderSameSeed(t *testing.T) {
	a := runDeterministicCampaign(t, 42, 4)
	b := runDeterministicCampaign(t, 42, 1)
	if !bytes.Equal(a, b) {
		t.Errorf("equal-seed campaigns diverge:\n--- workers=4\n%s\n--- workers=1\n%s", a, b)
	}
	c := runDeterministicCampaign(t, 43, 4)
	if bytes.Equal(a, c) {
		t.Error("different campaign seeds produced identical artifacts — seed not threaded")
	}
}

func TestCanonicalJSONLStripsOnlyWallClockFields(t *testing.T) {
	rec := newRecord(ScenarioResult{
		Scenario: testScenarios(1)[0],
		Status:   StatusOK,
		Attempts: 2,
		Started:  time.Now(),
		Duration: 123 * time.Millisecond,
	})
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := CanonicalJSONL(append(line, '\n'))
	if err != nil {
		t.Fatal(err)
	}
	s := string(canon)
	if strings.Contains(s, "started_at") || strings.Contains(s, "duration_ms") {
		t.Errorf("wall-clock fields survived canonicalization: %s", s)
	}
	for _, keep := range []string{`"name"`, `"seed"`, `"attempts":2`, `"status":"ok"`} {
		if !strings.Contains(s, keep) {
			t.Errorf("canonicalization dropped %s: %s", keep, s)
		}
	}
}

func TestStoreFinishWritesAggregateCSVs(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	report := &Report{Results: []ScenarioResult{
		{
			Scenario: Scenario{Index: 0, Name: "s/a", Kind: KindSuppression},
			Status:   StatusOK, Attempts: 1,
			Outcome: &Outcome{Suppression: &experiment.SuppressionResult{
				Ping: monitor.PingReport{Trials: []monitor.PingTrial{{Seq: 1, OK: true, RTT: time.Millisecond}}},
			}},
		},
		{
			Scenario: Scenario{Index: 1, Name: "i/a", Kind: KindInterruption, FailMode: switchsim.FailSafe},
			Status:   StatusOK, Attempts: 1,
			Outcome: &Outcome{Interruption: &experiment.InterruptionResult{
				FailMode: switchsim.FailSafe, ExtToInt: true, FinalState: "sigma2",
			}},
		},
	}}
	for _, res := range report.Results {
		if err := store.Put(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Finish(report); err != nil {
		t.Fatal(err)
	}
	fig11 := string(readArtifact(t, dir, Fig11File))
	if !strings.HasPrefix(fig11, "controller,condition,metric,trial,value") {
		t.Errorf("fig11.csv header wrong:\n%s", fig11)
	}
	table2 := string(readArtifact(t, dir, TableIIFile))
	if !strings.Contains(table2, "fail_mode") || !strings.Contains(table2, "sigma2") {
		t.Errorf("table2.csv content wrong:\n%s", table2)
	}
	if sum := string(readArtifact(t, dir, SummaryFile)); !strings.Contains(sum, "campaign:") {
		t.Errorf("summary.txt content wrong:\n%s", sum)
	}
}

func TestStoreRecordsSkippedScenariosAtFinish(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := testScenarios(2)
	if err := store.Put(ScenarioResult{Scenario: scenarios[0], Status: StatusOK, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	report := &Report{Results: []ScenarioResult{
		{Scenario: scenarios[0], Status: StatusOK, Attempts: 1},
		{Scenario: scenarios[1], Status: StatusSkipped, Err: "not started: context canceled"},
	}}
	if err := store.Finish(report); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(readArtifact(t, dir, ResultsFile)), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d records, want 2 (skipped scenario missing)", len(lines))
	}
	if !bytes.Contains(lines[1], []byte(`"status":"skipped"`)) {
		t.Errorf("second record is not the skipped scenario: %s", lines[1])
	}
}

// fakeIperfTrial is one second of transfer at the given rate.
func fakeIperfTrial(mbps float64) dataplane.IperfResult {
	return dataplane.IperfResult{BytesAcked: uint64(mbps * 1e6 / 8), Elapsed: time.Second}
}

func TestRecordMarshalsFailModeOnlyForInterruption(t *testing.T) {
	scenarios := Matrix{}.Expand()
	for _, sc := range scenarios {
		rec := newRecord(ScenarioResult{Scenario: sc, Status: StatusOK, Attempts: 1})
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		hasFailMode := bytes.Contains(line, []byte("fail_mode"))
		if (sc.Kind == KindInterruption) != hasFailMode {
			t.Errorf("%s: fail_mode presence = %v", sc.Name, hasFailMode)
		}
	}
}

func TestStorePutOutOfOrderHoldsBackRecords(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := testScenarios(3)
	put := func(i int) {
		t.Helper()
		if err := store.Put(ScenarioResult{Scenario: scenarios[i], Status: StatusOK, Attempts: 1}); err != nil {
			t.Fatal(err)
		}
	}
	records := func() int {
		data := bytes.TrimSpace(readArtifact(t, dir, ResultsFile))
		if len(data) == 0 {
			return 0
		}
		return len(bytes.Split(data, []byte("\n")))
	}
	// Index 2 first: nothing can flush until 0 and 1 exist.
	put(2)
	if n := records(); n != 0 {
		t.Fatalf("after Put(2): %d records on disk, want 0 (held back)", n)
	}
	put(0)
	if n := records(); n != 1 {
		t.Fatalf("after Put(0): %d records, want 1 (only the prefix)", n)
	}
	// 1 completes the prefix; 1 and the held-back 2 flush together.
	put(1)
	if n := records(); n != 3 {
		t.Fatalf("after Put(1): %d records, want 3", n)
	}
}

func TestStorePutDuplicateIndexDoesNotDuplicateRows(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := testScenarios(1)[0]
	if err := store.Put(ScenarioResult{Scenario: sc, Status: StatusOK, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	// A second result for the same index (e.g. a duplicate from a slow
	// grid worker) parks in pending but can never flush again.
	if err := store.Put(ScenarioResult{Scenario: sc, Status: StatusFailed, Attempts: 2}); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(readArtifact(t, dir, ResultsFile)), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("duplicate Put produced %d rows, want 1", len(lines))
	}
	if !bytes.Contains(lines[0], []byte(`"status":"ok"`)) {
		t.Errorf("first-write-wins violated: %s", lines[0])
	}
}

func TestStoreFinishAfterZeroResults(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Finish(&Report{}); err != nil {
		t.Fatal(err)
	}
	if data := readArtifact(t, dir, ResultsFile); len(data) != 0 {
		t.Errorf("empty campaign wrote %d bytes of results", len(data))
	}
	if sum := string(readArtifact(t, dir, SummaryFile)); !strings.Contains(sum, "0/0 ok") {
		t.Errorf("summary for empty campaign: %q", sum)
	}
	// No outcomes — no aggregate CSVs.
	for _, name := range []string{Fig11File, TableIIFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s written for an empty campaign", name)
		}
	}
	// Double Finish is an error, not a panic or silent truncation.
	if err := store.Finish(&Report{}); err == nil {
		t.Error("second Finish succeeded, want error")
	}
}

func TestCanonicalJSONLRejectsCorruptInput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
	}{
		{"truncated record", `{"index":0,"name":"a"` + "\n"},
		{"not json", "results go here\n"},
		{"bare array", `[1,2,3]` + "\n"},
	} {
		if _, err := CanonicalJSONL([]byte(tc.input)); err == nil {
			t.Errorf("%s: CanonicalJSONL accepted %q", tc.name, tc.input)
		}
	}
	// Empty input and blank lines are fine — an interrupted campaign may
	// legitimately have written nothing yet.
	for _, ok := range []string{"", "\n\n"} {
		if out, err := CanonicalJSONL([]byte(ok)); err != nil || len(out) != 0 {
			t.Errorf("CanonicalJSONL(%q) = %q, %v; want empty, nil", ok, out, err)
		}
	}
}

func TestResumeStoreContinuesInterruptedRun(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := testScenarios(5)
	for i := 0; i < 3; i++ {
		if err := store.Put(ScenarioResult{Scenario: scenarios[i], Status: StatusOK, Attempts: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash mid-write: a torn partial record at the tail.
	f, err := os.OpenFile(filepath.Join(dir, ResultsFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":3,"na`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed, done, err := ResumeStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 {
		t.Fatalf("ResumeStore found %d complete records, want 3", len(done))
	}
	// Run the remaining scenarios through the ordinary runner path.
	r := NewRunner(RunnerConfig{Workers: 2, Execute: stochasticExec, Store: resumed})
	report, err := r.Run(context.Background(), scenarios[len(done):])
	if err != nil {
		t.Fatal(err)
	}
	// Run already finished the store (cfg.Store was set); a second Finish
	// must refuse rather than truncate artifacts.
	if err := resumed.Finish(report); err == nil || !strings.Contains(err.Error(), "already finished") {
		t.Fatalf("second Finish = %v, want 'already finished' error", err)
	}
	lines := bytes.Split(bytes.TrimSpace(readArtifact(t, dir, ResultsFile)), []byte("\n"))
	if len(lines) != 5 {
		t.Fatalf("resumed run left %d records, want 5", len(lines))
	}
	for i, line := range lines {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("record %d corrupt after resume: %v", i, err)
		}
		if rec.Index != i {
			t.Fatalf("record %d has index %d — duplicated or reordered rows", i, rec.Index)
		}
	}
}

func TestResumeStoreFreshDirectoryStartsFromZero(t *testing.T) {
	store, done, err := ResumeStore(t.TempDir() + "/new")
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("fresh dir resumed at %d, want 0", len(done))
	}
	if err := store.Put(ScenarioResult{Scenario: testScenarios(1)[0], Status: StatusOK, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := store.Finish(&Report{}); err != nil {
		t.Fatal(err)
	}
}

func TestResumeStoreStopsAtIndexGap(t *testing.T) {
	dir := t.TempDir()
	// A hand-damaged file: record 0 then record 2 — the prefix ends at 1.
	content := `{"index":0,"name":"a","status":"ok"}` + "\n" + `{"index":2,"name":"c","status":"ok"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, ResultsFile), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, done, err := ResumeStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatalf("resume past an index gap: done=%d, want 1", len(done))
	}
	// The out-of-prefix tail must be truncated away so re-runs cannot
	// duplicate index 2.
	data := readArtifact(t, dir, ResultsFile)
	if bytes.Count(data, []byte("\n")) != 1 {
		t.Fatalf("truncation failed, file still holds: %s", data)
	}
}

// TestReadRecordPrefixTornTail verifies the statuses ResumeStore returns:
// position-mismatched, status-less or torn lines end the prefix.
func TestReadRecordPrefixTornTail(t *testing.T) {
	for _, tc := range []struct {
		name, lines string
		want        []Status
	}{
		{"index gap", `{"index":0,"status":"ok"}
{"index":1,"status":"failed"}
{"index":5,"status":"ok"}
`, []Status{StatusOK, StatusFailed}},
		{"empty status", `{"index":0,"status":"ok"}
{"index":1,"status":""}
{"index":2,"status":"ok"}
`, []Status{StatusOK}},
		{"torn tail", `{"index":0,"status":"skipped"}
{"index":1,"sta`, []Status{StatusSkipped}},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ResultsFile), []byte(tc.lines), 0o644); err != nil {
			t.Fatal(err)
		}
		store, done, err := ResumeStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		store.Abort()
		if !slices.Equal(done, tc.want) {
			t.Errorf("%s: prefix = %v, want %v", tc.name, done, tc.want)
		}
	}
	// Missing file = empty prefix, not an error.
	store, done, err := ResumeStore(t.TempDir())
	if err != nil || len(done) != 0 {
		t.Errorf("missing results.jsonl: prefix=%v err=%v, want empty, nil", done, err)
	}
	store.Abort()
}
