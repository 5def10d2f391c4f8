package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchSpec is BENCHMARK.json: the command, the workloads, and the bound by
// which each end-to-end metric may worsen.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read %s (run from the repository root): %w", path, err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds < 1 || len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: run_seconds and workloads are required", path)
	}
	return &s, nil
}

// runFile is what the all-workloads mode saves: where and how the runs were
// made, and every run's result.
type runFile struct {
	Commit  string                        `json:"commit"`
	When    string                        `json:"when"`
	Seed    int64                         `json:"seed"`
	Seconds int                           `json:"seconds"`
	Nproc   int                           `json:"nproc"`
	Go      string                        `json:"go"`
	Runs    map[string][]result           `json:"runs,omitempty"`   // workload -> untraced runs, one per seed
	Traced  map[string]result             `json:"traced,omitempty"` // workload -> the traced run
	Medians map[string]map[string]float64 `json:"medians"`          // workload -> end-to-end metric -> median over runs
}

// child runs one workload in a process of its own, so that its garbage
// collector state and peak RSS are its own, and parses the JSON on the
// last line of its standard output. The child's log goes to our stderr.
func child(workload string, seed int64, seconds int, trace bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: last line of output is not a result: %w", workload, err)
	}
	return res, nil
}

// gitCommit is the checked-out commit, or "unknown" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload of the spec, prints one row per workload and
// metric, and saves the runs.
func runAll(spec *benchSpec, seed int64, seconds int, trace bool, runs int, out string, record bool) error {
	rf := runFile{
		Commit: gitCommit(), When: time.Now().UTC().Format(time.RFC3339), Seed: seed, Seconds: seconds,
		Nproc: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Runs: make(map[string][]result), Traced: make(map[string]result),
		Medians: make(map[string]map[string]float64),
	}
	for _, w := range spec.Workloads {
		for r := 0; r < runs; r++ {
			res, err := child(w.Name, seed+int64(r), seconds, false)
			if err != nil {
				return err
			}
			rf.Runs[w.Name] = append(rf.Runs[w.Name], res)
		}
		if trace {
			res, err := child(w.Name, seed, seconds, true)
			if err != nil {
				return err
			}
			rf.Traced[w.Name] = res
		}
	}

	fmt.Printf("%-16s %-16s %16s %-6s %8s  %s\n", "workload", "metric", "median", "unit", "spread", "failed/attempted")
	failed := false
	for _, w := range spec.Workloads {
		var att, bad int64
		for _, res := range rf.Runs[w.Name] {
			att, bad = att+res.Attempted, bad+res.Failed
		}
		failed = failed || bad > 0
		rf.Medians[w.Name] = make(map[string]float64)
		for _, m := range spec.EndToEnd {
			vals := metricValues(rf.Runs[w.Name], m.Name)
			rf.Medians[w.Name][m.Name] = median(vals)
			fmt.Printf("%-16s %-16s %16.4f %-6s %7.1f%%  %d/%d\n", w.Name, m.Name, median(vals), m.Unit, 100*spread(vals), bad, att)
		}
		if res, ok := rf.Traced[w.Name]; ok {
			for _, m := range spec.PerLayer {
				if v := res.Metrics[m.Name]; v.Value != 0 {
					fmt.Printf("%-16s %-36s %16.4f %s\n", w.Name, m.Name, v.Value, v.Unit)
				}
			}
		}
	}

	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "runs saved to %s\n", out)
	if record {
		rf.Runs, rf.Traced = nil, nil
		line, err := json.Marshal(rf)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(filepath.Join("bench", "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("some operations failed; see the FAILED lines above")
	}
	return nil
}

func metricValues(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share
// of the median, the measure the benchmark's acceptance uses. Fewer than
// two values have no spread.
func spread(vals []float64) float64 {
	if len(vals) < 2 || median(vals) == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// quartiles follows Python's statistics.quantiles(values, n=4) (the
// exclusive method), so that spreads here read the same as the driver's.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(0.25), at(0.75)
}

// compareFiles applies each end-to-end metric's bound to two saved run
// files and prints one row per workload and metric: ok, regressed, or
// unresolved when the runs' own spread is wider than the bound (and the
// runs of one side do not all beat the other's). It fails on a regression
// or on more failed operations than before.
func compareFiles(spec *benchSpec, oldPath, newPath string) error {
	load := func(path string) (*runFile, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rf, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "old %s (%s, %d runs/workload)\nnew %s (%s)\n", oldPath, short(a.Commit), len(a.Runs[spec.Workloads[0].Name]), newPath, short(b.Commit))
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %8s %7s %8s  %s\n", "workload", "metric", "old", "new", "change", "bound", "spread", "verdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		ra, rb := a.Runs[wl.Name], b.Runs[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-16s missing from one side\n", wl.Name)
			regressed++
			continue
		}
		var fa, fb float64
		for _, r := range ra {
			fa += float64(r.Failed) / float64(max(r.Attempted, 1))
		}
		for _, r := range rb {
			fb += float64(r.Failed) / float64(max(r.Attempted, 1))
		}
		if fb/float64(len(rb)) > fa/float64(len(ra)) {
			fmt.Fprintf(w, "%-16s %-16s %14.6f %14.6f %32s  regressed\n", wl.Name, "failed share", fa/float64(len(ra)), fb/float64(len(rb)), "")
			regressed++
		}
		for _, m := range spec.EndToEnd {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			ma, mb := median(va), median(vb)
			verdict := judge(va, vb, m.Better, m.Bound)
			if verdict == "regressed" {
				regressed++
			}
			sp := max(spread(va), spread(vb))
			fmt.Fprintf(w, "%-16s %-16s %14.4f %14.4f %+7.1f%% %6.0f%% %7.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*m.Bound, 100*sp, verdict)
		}
	}
	if regressed > 0 {
		w.Flush()
		return fmt.Errorf("%d regression(s)", regressed)
	}
	return nil
}

// judge compares two sets of runs of one metric on one workload. The new
// median may be worse than the old by at most bound, as a share of the old.
// Where either side's own spread is wider than the bound the difference
// cannot be resolved, unless every run of one side beats every run of the
// other.
func judge(old, new []float64, better string, bound float64) string {
	mo, mn := median(old), median(new)
	worse := (mn - mo) / mo
	if better == "higher" {
		worse = (mo - mn) / mo
	}
	if max(spread(old), spread(new)) > bound && !allBetter(old, new, better) && !allBetter(new, old, better) {
		return "unresolved"
	}
	if worse > bound {
		return "regressed"
	}
	return "ok"
}

// allBetter reports whether every value of xs is better than every value
// of ys.
func allBetter(xs, ys []float64, better string) bool {
	if better == "higher" {
		return quantile(xs, 0) > quantile(ys, 1)
	}
	return quantile(xs, 1) < quantile(ys, 0)
}

func short(commit string) string {
	if len(commit) > 12 {
		return commit[:12]
	}
	return commit
}
