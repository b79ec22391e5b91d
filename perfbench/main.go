// Command perfbench is the repository benchmark. It runs one of three
// single-process, closed-loop workloads with one client through the public
// API (the ebv facade, and internal/serve in-process), verifies every timed
// operation against an oracle, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload batch-twitter --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run (see README.md).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// k is the subgraph count of every workload: the repository default.
const k = 8

// warmJobs run untimed before the window, so lazily created state (frame
// writers, the live mutation layer, connection pools) is in place.
const warmJobs = 2

// hardCap bounds a run's timed window whatever --seconds asks, so a run
// ends well inside the three minutes a run may take.
const hardCap = 100 * time.Second

// minBeyond is how many samples a run keeps beyond its tail percentile.
const minBeyond = 10

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// tail is the percentile job_tail_ms reports; a run lasts until it
	// has at least minBeyond samples beyond it.
	tail float64
	// setups is how many times a run repeats the set-up. setup_s is their
	// median, because set-up is the noisiest sample of a run; the short
	// set-ups repeat more.
	setups int
	run    func(b *bench) error
}

var workloads = []workload{
	{name: "batch-twitter", tail: 0.75, setups: 9, run: batchTwitter},
	{name: "jobs-twitter-tcp", tail: 0.95, setups: 5, run: jobsTwitterTCP},
	{name: "live-road-serve", tail: 0.95, setups: 9, run: liveRoadServe},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run.
type bench struct {
	opt options
	wl  workload
	ctx context.Context
	// tr records spans in a traced run; nil otherwise.
	tr *tracer

	setups    []time.Duration
	lat       []time.Duration // verified, untraced jobs
	tlat      []time.Duration // verified, traced jobs (traced run only)
	window    time.Duration
	attempted int
	failed    int
	problems  []string

	// fixed holds the values that must repeat exactly within a run and
	// across runs of one seed (see guard).
	fixed     map[string]float64
	fixedKeys []string
	// samples collects per-job values for per-layer medians.
	samples map[string][]float64
	// graph sizes for the environment record.
	vertices, edges int
	// e2e holds the workload's deterministic end-to-end metrics.
	e2e map[string]float64
	// notes are printed, one per line, before the result.
	notes []string
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := runBench(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name")
	fs.Uint64Var(&opt.seed, "seed", 1, "input seed")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&opt.work, "work", filepath.Join(".bench_build", "perfbench"), "directory for generated inputs and traces")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if opt.seconds <= 0 {
		return opt, fmt.Errorf("--seconds must be positive, got %g", opt.seconds)
	}
	opt.trace = trace == 1
	return opt, nil
}

func runBench(opt options) (*result, error) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == opt.workload })
	if i < 0 {
		names := make([]string, len(workloads))
		for j, w := range workloads {
			names[j] = w.name
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		opt:     opt,
		wl:      workloads[i],
		ctx:     context.Background(),
		fixed:   map[string]float64{},
		samples: map[string][]float64{},
		e2e:     map[string]float64{},
	}
	if opt.trace {
		b.tr = newTracer()
	}
	if err := b.wl.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	if err := b.checkFingerprint(); err != nil {
		return nil, err
	}
	b.printEnv()
	res := &result{
		Correct:   b.failed == 0 && len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
	}
	var err error
	if opt.trace {
		res.Metrics, err = b.layerMetrics()
	} else {
		res.Metrics, err = b.endToEndMetrics()
	}
	if err != nil {
		return nil, err
	}
	for _, n := range b.notes {
		fmt.Println(n)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	return res, nil
}

// job is one timed operation of a workload's closed loop.
type job struct {
	// run performs the operation; tr is nil unless the operation is
	// traced. Everything run does is inside the latency interval.
	run func(ctx context.Context, op int, tr *tracer) error
	// check verifies what the last run produced, outside the interval.
	check func(op int) error
}

// loop runs j in a closed loop: warmJobs untimed, then for the timed
// window and until the tail percentile has minBeyond samples beyond it. A
// traced run alternates traced and untraced operations, so the difference
// of their medians is the tracing overhead.
func (b *bench) loop(j job) error {
	for op := -warmJobs; op < 0; op++ {
		if err := j.run(b.ctx, op, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if err := j.check(op); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	need := minSamples(b.wl.tail)
	if b.opt.trace {
		need = 2 * minBeyond
	}
	dur := time.Duration(b.opt.seconds * float64(time.Second))
	start := time.Now()
	for op := 0; ; op++ {
		el := time.Since(start)
		if el >= hardCap {
			break
		}
		if el >= dur && len(b.lat) >= need && (!b.opt.trace || len(b.tlat) >= need) {
			break
		}
		var tr *tracer
		if b.opt.trace && op%2 == 1 {
			tr = b.tr
		}
		b.attempted++
		t0 := time.Now()
		err := j.run(b.ctx, op, tr)
		d := time.Since(t0)
		if err == nil {
			err = j.check(op)
		}
		if err != nil {
			b.failed++
			b.problem("job %d: %v", op, err)
			continue
		}
		if tr != nil {
			b.tlat = append(b.tlat, d)
		} else {
			b.lat = append(b.lat, d)
		}
	}
	b.window = time.Since(start)
	if len(b.lat) < need {
		b.problem("only %d verified jobs in %v, the tail needs %d", len(b.lat), b.window, need)
	}
	return nil
}

// minSamples is the fewest samples with minBeyond of them beyond the
// nearest-rank q-th percentile.
func minSamples(q float64) int {
	n := minBeyond
	for n-rank(n, q) < minBeyond {
		n++
	}
	return n
}

// rank is the 1-based nearest-rank index of the q-th percentile of n.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return max(1, min(n, r))
}

// percentile is the nearest-rank q-th percentile of ds, in milliseconds.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return ms(s[rank(len(s), q)-1])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// problem records a failed check: it makes the run incorrect.
func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// guard records a value that must repeat exactly: every later value under
// the same name must equal the first, and checkFingerprint compares the
// set with earlier runs of the same seed and build.
func (b *bench) guard(name string, v float64) {
	old, ok := b.fixed[name]
	if !ok {
		b.fixed[name] = v
		b.fixedKeys = append(b.fixedKeys, name)
		return
	}
	if math.Float64bits(old) != math.Float64bits(v) {
		b.problem("%s changed within the run: %v, then %v", name, old, v)
	}
}

// sample adds one per-job observation for a per-layer median.
func (b *bench) sample(name string, v float64) {
	b.samples[name] = append(b.samples[name], v)
}

// checkFingerprint compares this run's fixed values with those an earlier
// run of the same workload, seed and binary stored, and stores them when
// there is none. Deterministic counts must repeat across processes too.
func (b *bench) checkFingerprint() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	dir := filepath.Join(b.opt.work, "fingerprints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.json", b.opt.workload, b.opt.seed, hex.EncodeToString(h.Sum(nil))[:16]))
	old, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist) && len(b.problems) == 0:
		data, err := json.Marshal(b.fixed)
		if err != nil {
			return err
		}
		tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	case errors.Is(err, os.ErrNotExist):
		return nil
	case err != nil:
		return err
	}
	var prev map[string]float64
	if err := json.Unmarshal(old, &prev); err != nil {
		return fmt.Errorf("fingerprint %s: %w", path, err)
	}
	for _, name := range b.fixedKeys {
		if p, ok := prev[name]; !ok || math.Float64bits(p) != math.Float64bits(b.fixed[name]) {
			b.problem("%s = %v, an earlier run of this seed and build had %v", name, b.fixed[name], p)
		}
	}
	return nil
}

func (b *bench) printEnv() {
	env := map[string]any{
		"workload":   b.opt.workload,
		"seed":       b.opt.seed,
		"seconds":    b.opt.seconds,
		"trace":      b.opt.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"vertices":   b.vertices,
		"edges":      b.edges,
		"k":          k,
	}
	line, _ := json.Marshal(env)
	fmt.Println("env", string(line))
}

// endToEndMetrics assembles the untraced run's result. Every workload
// reports every metric.
func (b *bench) endToEndMetrics() (map[string]metric, error) {
	setups := make([]float64, len(b.setups))
	for i, d := range b.setups {
		setups[i] = d.Seconds()
	}
	m := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"job_p50_ms":  {percentile(b.lat, 0.5), "ms"},
		"job_tail_ms": {percentile(b.lat, b.wl.tail), "ms"},
		"jobs_per_s":  {float64(len(b.lat)) / b.window.Seconds(), "1/s"},
		"success_share": {
			float64(b.attempted-b.failed) / float64(max(1, b.attempted)), "share"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	for _, name := range []string{"replication_factor", "edge_imbalance", "vertex_imbalance", "wire_rows_per_job", "message_imbalance"} {
		v, ok := b.e2e[name]
		if !ok {
			return nil, fmt.Errorf("workload reported no %s", name)
		}
		unit := "ratio"
		if name == "wire_rows_per_job" {
			unit = "rows"
		}
		m[name] = metric{v, unit}
	}
	n := len(b.lat)
	var dec []string
	for q := 1; q <= 9; q++ {
		dec = append(dec, fmt.Sprintf("%.2f", percentile(b.lat, float64(q)/10)))
	}
	b.notes = append(b.notes, "job latency deciles p10..p90 (ms): "+strings.Join(dec, " "))
	// The p50 of each fifth of the window shows whether the work (or the
	// machine) drifted during the run.
	var fifths []string
	for f := range 5 {
		fifths = append(fifths, fmt.Sprintf("%.2f", percentile(b.lat[f*n/5:(f+1)*n/5], 0.5)))
	}
	b.notes = append(b.notes, "job p50 per fifth of the window (ms): "+strings.Join(fifths, " "))
	b.notes = append(b.notes,
		fmt.Sprintf("job_tail_ms is p%g of %d verified jobs, %d beyond it; setup_s is the median of %d set-ups %v",
			100*b.wl.tail, n, n-rank(n, b.wl.tail), len(b.setups), b.setups))
	return m, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
