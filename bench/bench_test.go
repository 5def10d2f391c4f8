package main

import (
	"encoding/binary"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"attain/internal/netem"
)

// TestSpecMatchesMetricTables keeps BENCHMARK.json and the harness's own
// tables in step: same metrics, same units, same workloads, and bounds
// inside what the benchmark contract allows.
func TestSpecMatchesMetricTables(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []boundedMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness %s (%s)", kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better=%q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.Workloads) != len(workloadFuncs) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloadFuncs))
	}
	for _, w := range spec.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("workload %s has no code", w.Name)
		}
	}
}

func TestQuantiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	if got := quantile([]float64{10, 20, 30, 40, 50}, 0.25); got != 20 {
		t.Errorf("quantile 0.25 = %v", got)
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for q, want := range map[float64]int64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := sortedQuantile(sorted, q); got != want {
			t.Errorf("sortedQuantile(%v) = %d, want %d", q, got, want)
		}
	}
	// The highest percentile with ten samples beyond it.
	for n, want := range map[int]float64{50: 0.5, 100: 0.9, 1000: 0.99, 10000: 0.999} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

// TestWindowSummaries: each window is reduced to its own quantile, empty
// windows are skipped, and neither the median nor the quiet quartile over
// windows is moved by one disturbed window.
func TestWindowSummaries(t *testing.T) {
	win := func(v int64, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	windows := [][]int64{win(100, 50), win(110, 50), win(90, 50), win(5000, 50), nil, win(120, 50)}
	p50s := windowQuantile(windows, 0.5)
	if want := []float64{100, 110, 90, 5000, 120}; !slices.Equal(p50s, want) {
		t.Fatalf("windowQuantile = %v, want %v", p50s, want)
	}
	if got := median(p50s); got != 110 {
		t.Errorf("median over windows = %v, want 110", got)
	}
	if got := quietLow(p50s); got != 100 {
		t.Errorf("quietLow over windows = %v, want 100", got)
	}
	if got := quietHigh([]float64{10, 20, 30, 40, 1}); got != 30 {
		t.Errorf("quietHigh = %v, want 30", got)
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v} }
	noisy := []float64{60, 100, 140, 80, 120}
	cases := []struct {
		name     string
		old, new []float64
		better   string
		want     string
	}{
		{"same", steady(100), steady(100), "lower", "ok"},
		{"slower latency", steady(100), steady(120), "lower", "regressed"},
		{"faster latency", steady(100), steady(80), "lower", "ok"},
		{"lower throughput", steady(100), steady(85), "higher", "regressed"},
		{"within bound", steady(100), steady(108), "lower", "ok"},
		{"too noisy to tell", noisy, steady(115), "lower", "unresolved"},
		{"noisy but every run worse", noisy, steady(400), "lower", "regressed"},
	}
	for _, c := range cases {
		if got := judge(c.old, c.new, c.better, 0.10); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// recordingConn is a generator-side conn that keeps what was written.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	frames [][]byte
	at     []time.Time
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), p...))
	c.at = append(c.at, time.Now())
	c.mu.Unlock()
	return len(p), nil
}

// TestPaceStampsDueTimes: the scheduler offers exactly rate*duration frames
// and stamps each with the tick it was due on, not with the time it went
// out.
func TestPaceStampsDueTimes(t *testing.T) {
	rec := &recordingConn{}
	f := &flow{epoch: time.Now(), burst: 4}
	l := &lane{id: 7, w: rec, tape: echoTape()}
	f.lanes, f.gens = []*lane{l}, [][]*lane{{l}}

	start := time.Now().Add(5 * time.Millisecond)
	const dur, rate = 100 * time.Millisecond, 10_000.0
	res, err := f.pace(start, dur, rate)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.late {
		if d > dur/2 {
			t.Skipf("test machine too loaded: the generator woke %v late and gave the phase up", d)
		}
	}
	if want := uint64(rate * dur.Seconds()); res.scheduled != want || f.sent.Load() != want {
		t.Fatalf("scheduled %d, sent %d, want %d", res.scheduled, f.sent.Load(), want)
	}
	var seq uint32
	for i, burst := range rec.frames {
		for off := 0; off < len(burst); off += 16 {
			if xid := binary.BigEndian.Uint32(burst[off+4:]); xid != seq {
				t.Fatalf("frame %d has seq %d", seq, xid)
			}
			seq++
			stamp := binary.BigEndian.Uint64(burst[off+8:])
			if stamp>>48 != 7 {
				t.Fatalf("frame carries lane %d", stamp>>48)
			}
			due := f.epoch.Add(time.Duration(stamp & (1<<48 - 1)))
			if sinceStart := due.Sub(start); sinceStart < 0 || sinceStart%paceTick != 0 || sinceStart >= dur {
				t.Fatalf("frame due %v after start: not on a tick of the schedule", sinceStart)
			}
			if due.After(rec.at[i]) {
				t.Fatalf("frame sent %v before it was due", due.Sub(rec.at[i]))
			}
		}
	}
}

// stallingConn is a sink-side conn whose reader stops for a while, once,
// the first time it is asked to after armed.
type stallingConn struct {
	net.Conn
	stall time.Duration
	after time.Time
	once  sync.Once
}

func (c *stallingConn) Read(p []byte) (int, error) {
	if time.Now().After(c.after) {
		c.once.Do(func() { time.Sleep(c.stall) })
	}
	return c.Conn.Read(p)
}

// TestCoordinatedOmission: when the far side stalls for 50 ms, frames that
// were due during the stall must report it. A generator that stamped send
// time, or that skipped the ticks it could not meet, would hide it.
func TestCoordinatedOmission(t *testing.T) {
	mem := netem.NewBufferedMemTransport(512) // 32 frames: the writer blocks early in the stall
	ln, err := mem.Listen("sink")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, b, err := connPair(mem, ln, "sink")
	if err != nil {
		t.Fatal(err)
	}
	const stall = 50 * time.Millisecond
	sink := &stallingConn{Conn: b, stall: stall, after: time.Now().Add(30 * time.Millisecond)}
	f := newFlow([]*lane{{id: 1, w: a, r: sink, tape: echoTape()}}, 1, 4)
	const rate, winLen, windows = 20_000, 40 * time.Millisecond, 8
	st, err := f.runPaced(rate, 0, winLen, windows)
	f.close()
	if err != nil {
		t.Fatal(err)
	}
	if f.bad.Load() != 0 {
		t.Fatalf("oracle: %s", f.badReason)
	}
	var worst int64
	n := 0
	for _, w := range st.windows {
		for _, lat := range w {
			worst = max(worst, lat)
			n++
		}
	}
	if n == 0 {
		t.Fatal("no latency samples")
	}
	if worst < int64(stall*8/10) {
		t.Errorf("worst reported latency %v does not contain the %v stall", time.Duration(worst), stall)
	}
	// Every tick of the schedule was offered, the stalled ones late.
	if want := uint64(rate * (windows * winLen).Seconds()); f.sent.Load() != want {
		t.Errorf("sent %d frames of the %d the schedule holds: ticks were skipped", f.sent.Load(), want)
	}
	// The stall puts the windows it touches off schedule. (How many stay on
	// schedule depends on how busy the test machine is, so that is not
	// asserted.)
	if st.valid == st.total {
		t.Errorf("all %d windows on schedule: the stalled ones should have been counted out", st.total)
	}
}

// Reduced-scale shapes of every workload: small enough that all of them,
// traced and untraced, finish in a couple of seconds, and yet through the
// same code as the full-scale runs.
var reducedWorkloads = map[string]func(*runCtx) error{
	"proxy_echo": func(rc *runCtx) error {
		return runProxy(proxyConfig{name: "proxy_echo", sessions: 8, burst: 16, ring: 8192, pacedRate: 50_000, capacity: 100_000}, rc)
	},
	"proxy_attack": func(rc *runCtx) error {
		return runProxy(proxyConfig{name: "proxy_attack", sessions: 8, burst: 8, ring: 8192, attack: true, pacedRate: 20_000, capacity: 40_000}, rc)
	},
	"proxy_fanin": func(rc *runCtx) error {
		return runProxy(proxyConfig{name: "proxy_fanin", sessions: 64, burst: 1, ring: 4096, pacedRate: 20_000, capacity: 40_000}, rc)
	},
	"fabric_5k": func(rc *runCtx) error {
		return runFabric(fabricConfig{name: "fabric_5k", topology: "jellyfish:24x3",
			echo: 20 * time.Millisecond, probe: 20 * time.Millisecond, minCycles: 1}, rc)
	},
	"paper_eval": func(rc *runCtx) error {
		return runPaper(paperConfig{name: "paper_eval", spec: `{"name":"reduced","kinds":["suppression","interruption"],
			"profiles":["ryu"],"attacks":["baseline"],"fail_modes":["safe"],"time_scale":200,"seed":%d,"workers":2,"timeout":"1m"}`}, rc)
	},
	"campaign_runner": func(rc *runCtx) error { return runOrch(orchRunner, orchConfig{trials: 4, minPasses: 2}, rc) },
	"campaign_grid":   func(rc *runCtx) error { return runOrch(orchGrid, orchConfig{trials: 4, minPasses: 2}, rc) },
	"campaign_serve":  func(rc *runCtx) error { return runOrch(orchServe, orchConfig{trials: 4, minPasses: 2}, rc) },
}

// TestWorkloadsEmitEveryMetric runs every workload at reduced scale, both
// ways, and checks the printed result carries every metric of its mode,
// finite and with its unit. Correctness at this scale is checked where it
// does not depend on timing: a compressed paper timeline may legitimately
// miss the paper's cells.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if len(reducedWorkloads) != len(workloadFuncs) {
		t.Fatalf("%d reduced workloads for %d workloads", len(reducedWorkloads), len(workloadFuncs))
	}
	// The runs mostly wait on their own schedules, so all of them go at
	// once, whatever the processor count, and are judged afterwards. On a
	// machine busy enough to starve one of them of a whole measurement
	// window, that run is made again on its own before it is judged.
	type outcome struct {
		rc  *runCtx
		res result
		err error
	}
	type key struct {
		name  string
		trace bool
	}
	attempt := func(k key) *outcome {
		o := &outcome{rc: &runCtx{seed: 7, seconds: 200 * time.Millisecond, trace: k.trace, scratch: t.TempDir(), rep: newReport()}}
		if k.trace {
			o.rc.tr = newTracer(k.name)
		}
		if o.err = reducedWorkloads[k.name](o.rc); o.err == nil {
			o.res, o.err = o.rc.rep.finish(k.trace)
		}
		return o
	}
	outcomes := make(map[key]*outcome)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name := range reducedWorkloads {
		for _, trace := range []bool{false, true} {
			k := key{name, trace}
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := attempt(k)
				mu.Lock()
				outcomes[k] = o
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	for k, o := range outcomes {
		if o.err != nil {
			t.Logf("%s (trace %v): %v; running it again alone", k.name, k.trace, o.err)
			outcomes[k] = attempt(k)
		}
	}

	for k, o := range outcomes {
		mode := map[bool]string{false: "untraced", true: "traced"}[k.trace]
		t.Run(k.name+"/"+mode, func(t *testing.T) {
			if o.err != nil {
				t.Fatal(o.err)
			}
			res := o.res
			defs := endToEnd
			if k.trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %+v (present %v), want a finite value in %s", d.Name, m, ok, d.Unit)
				}
				if !k.trace && m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
				}
			}
			if res.Attempted < 1 {
				t.Errorf("attempted = %d", res.Attempted)
			}
			if wrong := o.rc.rep.failed - o.rc.rep.invalid; k.name != "paper_eval" && wrong != 0 {
				t.Errorf("oracle found %d wrong outputs in %d operations: %v", wrong, res.Attempted, o.rc.rep.reasons)
			}
			if k.trace {
				path, err := o.rc.tr.write(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if st, err := os.Stat(path); err != nil || st.Size() == 0 {
					t.Errorf("span file %s missing or empty", path)
				}
			}
		})
	}
}
