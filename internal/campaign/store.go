package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"attain/internal/experiment"
	"attain/internal/monitor"
	"attain/internal/topo"
)

// Artifact file names written under the store directory.
const (
	ResultsFile = "results.jsonl"
	Fig11File   = "fig11.csv"
	TableIIFile = "table2.csv"
	// FabricFile aggregates fabric-kind scenarios: per-size convergence
	// latency and attack-deviation columns.
	FabricFile = "fabric.csv"
	// DetectFile aggregates detection-scored scenarios (synth programs,
	// the pktin-flood family): per-scenario TP/FP/FN/TN with derived
	// precision/recall.
	DetectFile  = "detect.csv"
	SummaryFile = "summary.txt"
	// TracesDir holds per-scenario telemetry traces (scenarios run with
	// Trace enabled), one JSONL file per scenario.
	TracesDir = "traces"
)

// Store persists campaign artifacts under one directory: a results.jsonl
// stream with one record per scenario, aggregate Figure 11 / Table II
// CSVs, and a human-readable summary.
//
// Records are streamed to results.jsonl in scenario index order regardless
// of completion order — a record is held back until every lower-index
// scenario has been recorded — so two equal-seed campaigns produce
// identical artifacts whatever the worker interleaving.
type Store struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	next    int
	pending map[int]ScenarioResult
	closed  bool
}

// NewStore creates (or truncates) the store's artifact files under dir,
// creating the directory if needed.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: create artifact dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, ResultsFile))
	if err != nil {
		return nil, fmt.Errorf("campaign: create %s: %w", ResultsFile, err)
	}
	return &Store{dir: dir, f: f, pending: make(map[int]ScenarioResult)}, nil
}

// ResumeStore reopens an interrupted campaign's artifact directory for
// continuation. Because Put streams records in strict index order, an
// interrupted results.jsonl is always a contiguous prefix [0, n) plus at
// most one partial line; ResumeStore validates that prefix (each line must
// be a record whose index matches its position and whose status is set),
// truncates anything after the last valid record, and returns a Store
// positioned to append record n next, together with the n recorded
// statuses in index order. The caller skips scenarios with index < n —
// including ones recorded as failed or skipped; resuming never re-runs a
// scenario that already has a row. A missing results.jsonl resumes from
// zero, equivalent to NewStore.
func ResumeStore(dir string) (*Store, []Status, error) {
	path := filepath.Join(dir, ResultsFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		s, err := NewStore(dir)
		return s, nil, err
	}
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: resume: %w", err)
	}
	done, keep := validPrefix(data)
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: resume %s: %w", ResultsFile, err)
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: resume truncate %s: %w", ResultsFile, err)
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: resume seek %s: %w", ResultsFile, err)
	}
	return &Store{dir: dir, f: f, next: len(done), pending: make(map[int]ScenarioResult)}, done, nil
}

// validPrefix scans a results.jsonl byte stream and returns the statuses
// of the intact leading records (each a JSON object whose index equals its
// position and whose status is non-empty) and the byte offset just past
// the last one. A torn final write — a partial line, or a record whose
// index or status is wrong — ends the prefix.
func validPrefix(data []byte) (done []Status, keep int64) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // partial trailing line: the interrupted write
		}
		var rec struct {
			Index  *int   `json:"index"`
			Status Status `json:"status"`
		}
		if err := json.Unmarshal(data[off:off+nl], &rec); err != nil ||
			rec.Index == nil || *rec.Index != len(done) || rec.Status == "" {
			break
		}
		done = append(done, rec.Status)
		off += nl + 1
	}
	return done, int64(off)
}

// Dir returns the store's artifact directory.
func (s *Store) Dir() string { return s.dir }

// Put records one completed scenario, flushing every record whose index
// prefix is complete.
func (s *Store) Put(res ScenarioResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("campaign: store already finished")
	}
	s.pending[res.Scenario.Index] = res
	for {
		r, ok := s.pending[s.next]
		if !ok {
			return nil
		}
		delete(s.pending, s.next)
		s.next++
		rec := newRecord(r)
		if err := s.writeTrace(&rec, r); err != nil {
			return err
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("campaign: encode record %d: %w", r.Scenario.Index, err)
		}
		if _, err := s.f.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("campaign: write %s: %w", ResultsFile, err)
		}
	}
}

// Finish flushes any stragglers, writes the aggregate CSVs (reusing the
// experiment exporters) and summary, and closes the JSONL stream. The
// close error is propagated — a full disk must not truncate silently.
func (s *Store) Finish(report *Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("campaign: store already finished")
	}
	s.closed = true

	var errs []error
	// Flush records that never went through Put (e.g. skipped scenarios
	// recorded only in the report).
	for _, res := range report.Results {
		if res.Scenario.Index < s.next {
			continue
		}
		if _, ok := s.pending[res.Scenario.Index]; !ok {
			s.pending[res.Scenario.Index] = res
		}
	}
	for ; len(s.pending) > 0; s.next++ {
		r, ok := s.pending[s.next]
		if !ok {
			break
		}
		delete(s.pending, s.next)
		rec := newRecord(r)
		if err := s.writeTrace(&rec, r); err != nil {
			errs = append(errs, err)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if _, err := s.f.Write(append(line, '\n')); err != nil {
			errs = append(errs, err)
			break
		}
	}
	if err := s.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("campaign: close %s: %w", ResultsFile, err))
	}

	writeFile := func(name string, write func(f *os.File) error) {
		f, err := os.Create(filepath.Join(s.dir, name))
		if err != nil {
			errs = append(errs, err)
			return
		}
		if err := write(f); err != nil {
			errs = append(errs, err)
		}
		if err := f.Close(); err != nil {
			errs = append(errs, fmt.Errorf("campaign: close %s: %w", name, err))
		}
	}
	if supp := report.SuppressionResults(); len(supp) > 0 {
		writeFile(Fig11File, func(f *os.File) error {
			return experiment.WriteFigure11CSV(f, supp)
		})
	}
	if inter := report.InterruptionResults(); len(inter) > 0 {
		writeFile(TableIIFile, func(f *os.File) error {
			return experiment.WriteTableIICSV(f, inter)
		})
	}
	if fabric := report.FabricResults(); len(fabric) > 0 {
		writeFile(FabricFile, func(f *os.File) error {
			return WriteFabricCSV(f, fabric)
		})
	}
	if det := report.DetectionResults(); len(det) > 0 {
		writeFile(DetectFile, func(f *os.File) error {
			return WriteDetectCSV(f, det)
		})
	}
	writeFile(SummaryFile, func(f *os.File) error {
		_, err := f.WriteString(report.Summary())
		return err
	})
	return errors.Join(errs...)
}

// Abort closes the JSONL stream without finalizing: no straggler flush, no
// aggregate CSVs, no summary. results.jsonl is left as the contiguous
// prefix Put has streamed so far — exactly what ResumeStore expects — so
// an aborted campaign resumes where it stopped instead of recording the
// remainder as skipped. Aborting an already-finished (or aborted) store is
// a no-op.
func (s *Store) Abort() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("campaign: close %s: %w", ResultsFile, err)
	}
	return nil
}

// writeTrace persists the outcome's telemetry trace (if any) under
// TracesDir and stamps the record with the file's store-relative path.
// Called with s.mu held.
func (s *Store) writeTrace(rec *Record, res ScenarioResult) error {
	trace := res.traceBytes()
	if trace == nil {
		return nil
	}
	dir := filepath.Join(s.dir, TracesDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: create %s: %w", TracesDir, err)
	}
	name := fmt.Sprintf("%03d-%s.jsonl", res.Scenario.Index, sanitizeName(res.Scenario.Name))
	if err := os.WriteFile(filepath.Join(dir, name), trace, 0o644); err != nil {
		return fmt.Errorf("campaign: write trace %s: %w", name, err)
	}
	rec.TraceFile = TracesDir + "/" + name
	return nil
}

// traceBytes returns the outcome's flushed telemetry trace, or nil.
func (res ScenarioResult) traceBytes() []byte {
	if res.Outcome == nil {
		return nil
	}
	if r := res.Outcome.Suppression; r != nil {
		return r.Trace
	}
	if r := res.Outcome.Interruption; r != nil {
		return r.Trace
	}
	return nil
}

// sanitizeName turns a scenario name into a safe file-name fragment.
func sanitizeName(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '.', c == '_':
		default:
			out[i] = '-'
		}
	}
	return string(out)
}

// Record is one results.jsonl line: the scenario coordinates, how the run
// went, and a compact outcome summary.
type Record struct {
	Index    int    `json:"index"`
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Profile  string `json:"profile"`
	Attack   string `json:"attack,omitempty"`
	FailMode string `json:"fail_mode,omitempty"`
	Trial    int    `json:"trial"`
	Seed     int64  `json:"seed"`

	Status   string `json:"status"`
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts"`
	// StartedAt and DurationMS are the only wall-clock fields; strip them
	// (CanonicalJSONL) before comparing equal-seed runs.
	StartedAt  string  `json:"started_at"`
	DurationMS float64 `json:"duration_ms"`

	// Topology is the generator descriptor for fabric-kind scenarios.
	Topology string `json:"topology,omitempty"`

	Suppression  *SuppressionRecord  `json:"suppression,omitempty"`
	Interruption *InterruptionRecord `json:"interruption,omitempty"`
	Fabric       *topo.FabricResult  `json:"fabric,omitempty"`
	// Synth identifies the generated program a synth-kind scenario ran
	// (per-program seed + DSL digest), for shard-equivalence audits.
	Synth *SynthInfo `json:"synth,omitempty"`
	// TraceFile is the store-relative path of the scenario's telemetry
	// trace, when the scenario ran with Trace enabled.
	TraceFile string `json:"trace_file,omitempty"`
}

// SuppressionRecord summarizes a §VII-B outcome.
type SuppressionRecord struct {
	ThroughputMbps  monitor.Summary `json:"throughput_mbps"`
	LatencyMS       monitor.Summary `json:"latency_ms"`
	LossPct         float64         `json:"loss_pct"`
	DoS             bool            `json:"dos"`
	FlowModsDropped uint64          `json:"flow_mods_dropped"`
}

// InterruptionRecord summarizes a §VII-C outcome (the Table II cells).
type InterruptionRecord struct {
	ExtToExtBefore   bool   `json:"ext_to_ext_t30"`
	IntToExtBefore   bool   `json:"int_to_ext_t30"`
	ExtToInt         bool   `json:"ext_to_int_t50"`
	IntToExtAfter    bool   `json:"int_to_ext_t95"`
	Unauthorized     bool   `json:"unauthorized_access"`
	DeniedLegitimate bool   `json:"denied_legitimate"`
	FinalState       string `json:"final_state"`
	S2Disconnected   bool   `json:"s2_disconnected"`
}

// newRecord flattens a ScenarioResult into its JSONL form.
func newRecord(res ScenarioResult) Record {
	sc := res.Scenario
	rec := Record{
		Index:      sc.Index,
		Name:       sc.Name,
		Kind:       string(sc.Kind),
		Profile:    sc.Profile.String(),
		Attack:     sc.Attack,
		Trial:      sc.Trial,
		Seed:       sc.Seed,
		Status:     string(res.Status),
		Error:      res.Err,
		Attempts:   res.Attempts,
		StartedAt:  res.Started.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(res.Duration) / float64(time.Millisecond),
	}
	if sc.Kind == KindInterruption {
		rec.FailMode = sc.FailMode.String()
	}
	if sc.Kind == KindFabric || sc.Kind == KindSynth {
		rec.Topology = sc.Topology
	}
	if res.Outcome == nil {
		return rec
	}
	rec.Fabric = res.Outcome.Fabric
	rec.Synth = res.Outcome.Synth
	if r := res.Outcome.Suppression; r != nil {
		rec.Suppression = &SuppressionRecord{
			ThroughputMbps:  r.Iperf.ThroughputSummary(),
			LatencyMS:       r.Ping.LatencySummary(),
			LossPct:         r.Ping.LossPct(),
			DoS:             r.DoS(),
			FlowModsDropped: r.FlowModsDropped,
		}
	}
	if r := res.Outcome.Interruption; r != nil {
		rec.Interruption = &InterruptionRecord{
			ExtToExtBefore:   r.ExtToExtBefore,
			IntToExtBefore:   r.IntToExtBefore,
			ExtToInt:         r.ExtToInt,
			IntToExtAfter:    r.IntToExtAfter,
			Unauthorized:     r.UnauthorizedAccess(),
			DeniedLegitimate: r.DeniedLegitimate(),
			FinalState:       r.FinalState,
			S2Disconnected:   r.S2Disconnected,
		}
	}
	return rec
}

// CanonicalJSONL strips the wall-clock fields (started_at, duration_ms)
// from a results.jsonl stream and re-marshals every record with sorted
// keys, so equal-seed campaign runs compare byte-for-byte.
func CanonicalJSONL(data []byte) ([]byte, error) {
	var out bytes.Buffer
	scan := bufio.NewScanner(bytes.NewReader(data))
	scan.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for scan.Scan() {
		line := bytes.TrimSpace(scan.Bytes())
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, fmt.Errorf("campaign: canonicalize: %w", err)
		}
		delete(m, "started_at")
		delete(m, "duration_ms")
		b, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	if err := scan.Err(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// shardInvariantTopFields are the Record fields that must be identical
// across fabric shard counts: the scenario coordinates, the verdict, and
// the synth program identity. Wall-clock and attempt-count fields are
// execution detail and excluded.
var shardInvariantTopFields = map[string]bool{
	"index": true, "name": true, "kind": true, "profile": true,
	"attack": true, "fail_mode": true, "topology": true, "trial": true,
	"seed": true, "status": true, "synth": true, "fabric": true,
}

// shardInvariantFabricFields are the FabricResult fields that must not
// depend on the shard count: topology shape, convergence booleans, and
// the deviation verdict. Latencies, goroutine peaks, wave counts, and
// load-dependent observation counters (phantom/injected frame tallies at
// audit time) legitimately vary with execution strategy; the deviation
// boolean is the determinism contract they roll up into.
var shardInvariantFabricFields = map[string]bool{
	"topology": true, "profile": true, "attack": true,
	"switches": true, "links": true, "hosts": true,
	"connected": true, "discovery_converged": true,
	"deviation": true, "flaps_applied": true,
}

// ShardInvariantJSONL projects a results.jsonl stream onto the fields
// that the sharded event-loop refactor guarantees identical across
// FabricShards settings, re-marshalled with sorted keys so equal-seed
// campaigns at different shard counts compare byte-for-byte.
func ShardInvariantJSONL(data []byte) ([]byte, error) {
	var out bytes.Buffer
	scan := bufio.NewScanner(bytes.NewReader(data))
	scan.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for scan.Scan() {
		line := bytes.TrimSpace(scan.Bytes())
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, fmt.Errorf("campaign: shard projection: %w", err)
		}
		for k := range m {
			if !shardInvariantTopFields[k] {
				delete(m, k)
			}
		}
		if fab, ok := m["fabric"].(map[string]any); ok {
			for k := range fab {
				if !shardInvariantFabricFields[k] {
					delete(fab, k)
				}
			}
		}
		b, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	if err := scan.Err(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}
