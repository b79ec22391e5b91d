package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"time"

	"ebv"
)

// span is one timed call into a layer. Spans of one operation share Op
// (set-up repetitions use negative ids); Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the heap bytes the process allocated during the span.
	Alloc uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory; the traced run writes them out when it
// ends. A nil *tracer records nothing, so untraced code paths call the
// same methods. Only the benchmark's goroutine uses it: progress callbacks
// run on the goroutine that called Run or Open.
type tracer struct {
	epoch  time.Time
	spans  []span
	allocs []uint64 // heap-alloc counter at each span's start
	sample []metrics.Sample
	// scope is the parent and op that progress events attach to.
	scope, scopeOp int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.epoch))})
	t.allocs = append(t.allocs, t.heapAllocs())
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	s.Alloc = t.heapAllocs() - t.allocs[id-1]
}

// enter makes pipeline progress events open spans under parent until
// leave.
func (t *tracer) enter(parent, op int) {
	if t != nil {
		t.scope, t.scopeOp = parent, op
	}
}

func (t *tracer) leave() {
	if t != nil {
		t.scope = 0
	}
}

// stageSpan names the layer call behind each pipeline stage.
var stageSpan = map[ebv.PipelineStage]string{
	ebv.StageLoad:      "graph.load",
	ebv.StagePartition: "core.partition",
	ebv.StageMetrics:   "partition.metrics",
	ebv.StageBuild:     "bsp.build",
	ebv.StageRun:       "bsp.run",
}

// progress is an ebv.OnProgress callback: it turns each stage's start and
// done events into a span under the current scope.
func (t *tracer) progress() func(ebv.PipelineProgress) {
	open := map[ebv.PipelineStage]int{}
	return func(p ebv.PipelineProgress) {
		if t.scope == 0 {
			return
		}
		if !p.Done {
			open[p.Stage] = t.begin(stageSpan[p.Stage], t.scope, t.scopeOp)
			return
		}
		t.end(open[p.Stage])
		delete(open, p.Stage)
	}
}

// selfNS is each span's duration minus the part of it its children
// cover, indexed by span id - 1.
func (t *tracer) selfNS() []int64 {
	type iv struct{ a, b int64 }
	kids := make([][]iv, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		ivs := kids[i]
		slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
		covered, reach := int64(0), s.Start
		for _, c := range ivs {
			a, e := max(c.a, reach), min(c.b, s.End)
			if e > a {
				covered += e - a
				reach = e
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// perOp sums f over the spans called name within each operation and
// returns the median of those sums (0 when no span has the name).
func (t *tracer) perOp(name string, f func(i int) float64) float64 {
	sums := map[int]float64{}
	for i, s := range t.spans {
		if s.Name == name {
			sums[s.Op] += f(i)
		}
	}
	var xs []float64
	for _, v := range sums {
		xs = append(xs, v)
	}
	return median(xs)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerUnits lists every per-layer metric with its unit. A layer a
// workload does not run reports 0.
var layerUnits = [][2]string{
	{"graph.load_ms", "ms"},
	{"core.partition_ms", "ms"},
	{"core.partition_medges_per_s", "Medges/s"},
	{"core.alloc_mb", "MB"},
	{"partition.metrics_ms", "ms"},
	{"bsp.build_ms", "ms"},
	{"bsp.steps_per_job", "count"},
	{"bsp.run_wall_ms", "ms"},
	{"bsp.comp_ms", "ms"},
	{"bsp.comm_ms", "ms"},
	{"bsp.sync_ms", "ms"},
	{"bsp.delta_c_ms", "ms"},
	{"bsp.unattributed_ms", "ms"},
	{"bsp.alloc_mb_per_job", "MB"},
	{"transport.mesh_setup_ms", "ms"},
	{"transport.tcp_job_ms", "ms"},
	{"transport.wire_bytes_per_job", "B"},
	{"transport.sender_fold_share", "share"},
	{"transport.receiver_fold_share", "share"},
	{"apps.oracle_ms", "ms"},
	{"live.apply_ms", "ms"},
	{"live.patch_ms", "ms"},
	{"live.parts_rebuilt_per_batch", "count"},
	{"live.parts_reused_per_batch", "count"},
	{"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.write_p50_ms", "ms"},
	{"serve.read_p50_ms", "ms"},
	{"ebv.facade_self_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// layerMetrics assembles the traced run's result: span-derived layer
// times, the per-job medians the workload sampled from the counters the
// public calls return, and the tracing overhead.
func (b *bench) layerMetrics() (map[string]metric, error) {
	t := b.tr
	path := filepath.Join(b.opt.work, fmt.Sprintf("trace-%s-%d.json", b.opt.workload, b.opt.seed))
	if err := t.write(path); err != nil {
		return nil, err
	}
	self := t.selfNS()
	selfMS := func(i int) float64 { return float64(self[i]) / 1e6 }
	allocMB := func(i int) float64 { return float64(t.spans[i].Alloc) / (1 << 20) }

	v := map[string]float64{}
	for name, val := range map[string]string{
		"graph.load_ms":           "graph.load",
		"core.partition_ms":       "core.partition",
		"partition.metrics_ms":    "partition.metrics",
		"bsp.build_ms":            "bsp.build",
		"apps.oracle_ms":          "apps.oracle",
		"transport.mesh_setup_ms": "transport.mesh_setup",
		"ebv.facade_self_ms":      "ebv.facade",
	} {
		v[name] = t.perOp(val, selfMS)
	}
	v["core.alloc_mb"] = t.perOp("core.partition", allocMB)
	v["bsp.alloc_mb_per_job"] = t.perOp("bsp.run", allocMB)
	if p := v["core.partition_ms"]; p > 0 {
		v["core.partition_medges_per_s"] = float64(b.edges) / 1e6 / (p / 1e3)
	}
	for name, xs := range b.samples {
		v[name] = median(xs)
	}
	v["trace.overhead_ms"] = percentile(b.tlat, 0.5) - percentile(b.lat, 0.5)

	m := map[string]metric{}
	for _, lu := range layerUnits {
		m[lu[0]] = metric{v[lu[0]], lu[1]}
		delete(v, lu[0])
	}
	for name := range v {
		return nil, fmt.Errorf("per-layer metric %s is not listed", name)
	}
	b.notes = append(b.notes, fmt.Sprintf("trace: %d spans written to %s; tracing overhead %.3f ms on job_p50 (%d traced vs %d untraced jobs)",
		len(t.spans), path, m["trace.overhead_ms"].Value, len(b.tlat), len(b.lat)))
	return m, nil
}
