// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a stable JSON document on stdout, so benchmark runs can be committed
// (BENCH_msgpath.json) and diffed with docs/perf/benchcmp.
//
// Usage:
//
//	go test -bench . -benchmem ./... | go run ./docs/perf/benchjson > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line. Units the Go tooling doesn't standardize
// (testing.B.ReportMetric's connect-ms, peak-goroutines, ...) land in
// Extra keyed by their unit string.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	MBPerSec    float64            `json:"mb_per_sec,omitempty"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Doc is the emitted document.
type Doc struct {
	Goos       string            `json:"goos,omitempty"`
	Goarch     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks []Result          `json:"benchmarks"`
	Derived    map[string]string `json:"derived,omitempty"`
}

func main() {
	doc := Doc{Derived: map[string]string{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	derive(&doc)
	sort.Slice(doc.Benchmarks, func(i, j int) bool { return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name })
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseLine decodes one "BenchmarkName-8  N  x ns/op  [y MB/s]  [z B/op  w allocs/op]" line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
	}
	r := Result{Name: name}
	var err error
	if r.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return Result{}, false
	}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(val, 64)
		case "MB/s":
			r.MBPerSec, _ = strconv.ParseFloat(val, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		default:
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				if r.Extra == nil {
					r.Extra = map[string]float64{}
				}
				r.Extra[unit] = f
			}
		}
	}
	return r, true
}

// derive records headline ratios (e.g. lazy-vs-baseline speedup) so the
// committed document answers "how much faster" without arithmetic.
func derive(doc *Doc) {
	byName := map[string]Result{}
	for _, r := range doc.Benchmarks {
		byName[r.Name] = r
	}
	lazy, ok1 := byName["BenchmarkInjectorPassthrough/lazy"]
	base, ok2 := byName["BenchmarkInjectorPassthrough/fulldecode-baseline"]
	if ok1 && ok2 && lazy.NsPerOp > 0 {
		doc.Derived["passthrough_speedup"] = fmt.Sprintf("%.2fx", base.NsPerOp/lazy.NsPerOp)
		doc.Derived["passthrough_allocs_per_op"] = strconv.FormatInt(lazy.AllocsPerOp, 10)
	}
	if len(doc.Derived) == 0 {
		doc.Derived = nil
	}
}
