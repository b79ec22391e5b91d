// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), one testing.B benchmark per artifact, plus ablation benches for the
// design choices called out in DESIGN.md §5.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the regenerated table/figure once (on the first
// iteration) and then times the underlying computation. Absolute times
// differ from the paper (its testbed is a 4-node Xeon cluster; ours is a
// simulator on one machine) — the *shape* assertions live in
// internal/harness tests; EXPERIMENTS.md records both.
package ebv_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"

	"ebv"
	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/harness"
	"ebv/internal/partition"
	"ebv/internal/transport"
)

// benchScale keeps the full suite under a few minutes; raise it (or use
// cmd/ebv-bench -scale) for larger runs.
const benchScale = 0.35

func benchOpt() harness.Options {
	return harness.Options{
		Scale:         benchScale,
		Seed:          2021,
		PageRankIters: 8,
		Workers:       []int{4, 8},
	}
}

// printOnce prints an experiment's table on the first benchmark iteration
// only, so -bench output stays readable.
var printedExperiments sync.Map

func printOnce(b *testing.B, name string, print func(io.Writer) error) {
	b.Helper()
	if _, loaded := printedExperiments.LoadOrStore(name, true); loaded {
		return
	}
	fmt.Fprintf(os.Stderr, "\n──── %s ────\n", name)
	if err := print(os.Stderr); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTable1GraphStats(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r, err := harness.Table1(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "Table I", r.Print)
	}
}

func BenchmarkTable2Breakdown(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r, err := harness.Table2(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "Table II", r.Print)
	}
}

func BenchmarkTable3PartitionMetrics(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r, err := harness.Table3(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "Table III", r.Print)
	}
}

func BenchmarkTable4Messages(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r, err := harness.Table4(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "Table IV", r.Print)
	}
}

func BenchmarkTable5MessageBalance(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r, err := harness.Table5(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "Table V", r.Print)
	}
}

func BenchmarkFig2PowerLawSweep(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r, err := harness.Fig2(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "Figure 2", r.Print)
	}
}

func BenchmarkFig3RoadSweep(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r, err := harness.Fig3(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "Figure 3", r.Print)
	}
}

func BenchmarkFig4Timeline(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r, err := harness.Fig4(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "Figure 4", r.Print)
	}
}

func BenchmarkFig5ReplicationGrowth(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		r, err := harness.Fig5(opt)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "Figure 5", r.Print)
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §5).

func ablationGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 20000, NumEdges: 200000, Eta: 2.1, Directed: true, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAblationSortOrder compares EBV's edge-processing orders
// (§V-D): the paper predicts sort < unsort < descending in final RF.
func BenchmarkAblationSortOrder(b *testing.B) {
	g := ablationGraph(b)
	for _, order := range []core.Order{core.OrderSorted, core.OrderInput, core.OrderSortedDesc} {
		b.Run(order.String(), func(b *testing.B) {
			var rf float64
			for i := 0; i < b.N; i++ {
				e := core.New(core.WithOrder(order))
				a, err := e.Partition(g, 16)
				if err != nil {
					b.Fatal(err)
				}
				m, err := partition.ComputeMetrics(g, a)
				if err != nil {
					b.Fatal(err)
				}
				rf = m.ReplicationFactor
			}
			b.ReportMetric(rf, "replication-factor")
		})
	}
}

// BenchmarkAblationAlphaBeta sweeps the evaluation-function weights: larger
// α/β buys tighter balance at the cost of replication (Theorems 1-2).
func BenchmarkAblationAlphaBeta(b *testing.B) {
	g := ablationGraph(b)
	for _, ab := range []struct{ alpha, beta float64 }{
		{0.1, 0.1}, {1, 1}, {10, 10}, {1, 10}, {10, 1},
	} {
		b.Run(fmt.Sprintf("a%g_b%g", ab.alpha, ab.beta), func(b *testing.B) {
			var rf, eif float64
			for i := 0; i < b.N; i++ {
				e := core.New(core.WithAlpha(ab.alpha), core.WithBeta(ab.beta))
				a, err := e.Partition(g, 16)
				if err != nil {
					b.Fatal(err)
				}
				m, err := partition.ComputeMetrics(g, a)
				if err != nil {
					b.Fatal(err)
				}
				rf, eif = m.ReplicationFactor, m.EdgeImbalance
			}
			b.ReportMetric(rf, "replication-factor")
			b.ReportMetric(eif, "edge-imbalance")
		})
	}
}

// BenchmarkAblationSyncStrategy compares CC's send-on-change replica sync
// against send-all-on-change.
func BenchmarkAblationSyncStrategy(b *testing.B) {
	g := ablationGraph(b)
	a, err := core.New().Partition(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		sendAll bool
	}{{"send-changed", false}, {"send-all", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var msgs int64
			for i := 0; i < b.N; i++ {
				res, err := bsp.Run(subs, &apps.CC{SendAll: mode.sendAll}, bsp.Config{})
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.TotalMessages()
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

// BenchmarkAblationTransport compares the in-memory router against the TCP
// loopback mesh on the same CC workload.
func BenchmarkAblationTransport(b *testing.B) {
	g := ablationGraph(b)
	a, err := core.New().Partition(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bsp.Run(subs, &apps.CC{}, bsp.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mesh, err := transport.NewTCPMeshDeployment(b.Context(), 4)
			if err != nil {
				b.Fatal(err)
			}
			trs, err := mesh.OpenJob(1, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := bsp.Run(subs, &apps.CC{}, bsp.Config{Transports: trs}); err != nil {
				b.Fatal(err)
			}
			_ = mesh.Close()
		}
	})
}

// BenchmarkEBVPartition measures raw EBV throughput (edges/second) across
// subgraph counts: k = 8 is the repository default, and k = 100 needs two
// membership words per vertex.
func BenchmarkEBVPartition(b *testing.B) {
	g := ablationGraph(b)
	for _, k := range []int{4, 8, 16, 64, 100} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			e := ebv.NewEBV()
			for i := 0; i < b.N; i++ {
				if _, err := e.Partition(g, k); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(g.NumEdges()))
		})
	}
}

// BenchmarkAblationStreaming compares offline, streaming, windowed and
// parallel EBV plus HDRF on one power-law workload (quality reported as
// custom metrics; see harness.AblationStreaming for the full table).
func BenchmarkAblationStreaming(b *testing.B) {
	g := ablationGraph(b)
	configs := []partition.Partitioner{
		core.New(),
		&core.PartitionStream{},
		&core.PartitionStream{Window: 64},
		&core.ParallelEBV{Workers: 4},
		&partition.HDRF{},
	}
	for _, p := range configs {
		b.Run(p.Name(), func(b *testing.B) {
			var rf float64
			for i := 0; i < b.N; i++ {
				a, err := p.Partition(g, 16)
				if err != nil {
					b.Fatal(err)
				}
				m, err := partition.ComputeMetrics(g, a)
				if err != nil {
					b.Fatal(err)
				}
				rf = m.ReplicationFactor
			}
			b.SetBytes(int64(g.NumEdges()))
			b.ReportMetric(rf, "replication-factor")
		})
	}
}

// BenchmarkPipelineEndToEnd measures the full Pipeline path — partition →
// metrics → build subgraphs → run CC to quiescence — on a PowerLaw
// analogue, giving future PRs a perf baseline for the whole serving path
// (the graph is generated once outside the timed loop, matching the
// paper's methodology of excluding input loading).
func BenchmarkPipelineEndToEnd(b *testing.B) {
	g := ablationGraph(b)
	for _, k := range []int{4, 16} {
		for _, par := range []struct {
			name string
			n    int
		}{{"seq", 1}, {fmt.Sprintf("par%d", runtime.GOMAXPROCS(0)), 0}} {
			b.Run(fmt.Sprintf("k%d/%s", k, par.name), func(b *testing.B) {
				var rf float64
				for i := 0; i < b.N; i++ {
					res, err := ebv.NewPipeline(
						ebv.FromGraph(g),
						ebv.UsePartitioner(ebv.NewEBV()),
						ebv.Subgraphs(k),
						ebv.Parallelism(par.n),
					).Run(context.Background(), &apps.CC{})
					if err != nil {
						b.Fatal(err)
					}
					rf = res.Metrics.ReplicationFactor
				}
				b.SetBytes(int64(g.NumEdges()))
				b.ReportMetric(rf, "replication-factor")
			})
		}
	}
}

// benchFanIn is the high-fan-in messaging kernel of the combiner bench: R
// rounds of per-edge rows shipped to each destination vertex's master and
// summed there — the vertex-centric traffic pattern whose duplicate-ID
// rows a sender-side SumCombiner collapses (the replica-sync apps emit
// unique-ID batches, so their combining win is receiver-side only).
type benchFanIn struct{ Rounds int }

func (*benchFanIn) Name() string { return "FANIN" }

func (*benchFanIn) MessageCombiner() transport.Combiner { return transport.SumCombiner{} }

func (p *benchFanIn) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	rounds := p.Rounds
	if rounds <= 0 {
		rounds = 4
	}
	return &benchFanInWorker{sub: sub, env: env, rounds: rounds, acc: make([]float64, sub.NumLocalVertices())}
}

type benchFanInWorker struct {
	sub    *bsp.Subgraph
	env    bsp.Env
	rounds int
	acc    []float64
}

func (w *benchFanInWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	self := int32(w.sub.Part)
	for i, gid := range in.IDs {
		if local, ok := w.sub.LocalOf(gid); ok && w.sub.Master(local) == self {
			w.acc[local] += in.Scalar(i)
		}
	}
	if step%2 != 0 || step/2 >= w.rounds {
		return nil, step/2 < w.rounds
	}
	out := make([]*transport.MessageBatch, w.sub.NumWorkers)
	for _, e := range w.sub.Edges {
		master := w.sub.Master(int32(e.Dst))
		if out[master] == nil {
			out[master] = w.env.NewBatch()
		}
		out[master].AppendScalar(w.sub.GlobalIDs[e.Dst], 1)
	}
	return out, true
}

func (w *benchFanInWorker) Values() *graph.ValueMatrix {
	vals := w.env.NewValues(w.sub.NumLocalVertices())
	for l, v := range w.acc {
		vals.SetScalar(l, v)
	}
	return vals
}

// BenchmarkMessageDelivery measures the message plane end-to-end: CC and
// PageRank to quiescence over a fixed EBV partition, on the in-memory
// router and the TCP loopback mesh — the delivery-throughput numbers
// EXPERIMENTS.md tracks across message-plane changes. The width axis shows
// the columnar batches' marginal cost of vector payloads (Aggregate); the
// combine axis shows sender/receiver message combining (off vs each
// program's natural combiner), with the FANIN kernel supplying the
// duplicate-heavy traffic where sender-side coalescing shrinks the wire.
// The tcp runs add a wire axis — raw (v3) vs varint (v4 compressed
// columns) — reporting actual wire bytes moved per run as a metric (CI
// uploads these rows as BENCH_wire.json). The wire and delivered row
// counts are reported as metrics everywhere.
func BenchmarkMessageDelivery(b *testing.B) {
	g := ablationGraph(b)
	a, err := core.New().Partition(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name  string
		prog  func() bsp.Program
		width int
	}{
		{"CC", func() bsp.Program { return &apps.CC{} }, 1},
		{"PR", func() bsp.Program { return &apps.PageRank{Iterations: 8} }, 1},
		{"AGGw8", func() bsp.Program { return &apps.Aggregate{Layers: 2} }, 8},
		{"FANIN", func() bsp.Program { return &benchFanIn{} }, 1},
	}
	wireFormats := map[string]transport.WireFormat{"raw": transport.WireV3, "varint": transport.WireV4}
	runTCP := func(b *testing.B, prog func() bsp.Program, width int, combine bool, format transport.WireFormat) {
		var counts bsp.MessageCounts
		var wireBytes int64
		for i := 0; i < b.N; i++ {
			// Mesh setup/teardown is connection plumbing, not message
			// delivery: keep it off the clock.
			b.StopTimer()
			mesh, err := transport.NewTCPMeshDeployment(b.Context(), 8, transport.WithWireFormat(format))
			if err != nil {
				b.Fatal(err)
			}
			dep, err := bsp.NewDeployment(subs, mesh)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := dep.Run(context.Background(), prog(), bsp.Config{ValueWidth: width, AutoCombine: combine})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			counts = res.MessageCounts()
			wireBytes = mesh.WireBytes()
			_ = dep.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(counts.Wire), "messages")
		b.ReportMetric(float64(counts.Delivered), "delivered")
		b.ReportMetric(float64(wireBytes), "wirebytes")
	}
	for _, tc := range cases {
		for _, combine := range []string{"off", "auto"} {
			b.Run(fmt.Sprintf("%s/mem/combine=%s", tc.name, combine), func(b *testing.B) {
				var counts bsp.MessageCounts
				for i := 0; i < b.N; i++ {
					res, err := bsp.Run(subs, tc.prog(), bsp.Config{ValueWidth: tc.width, AutoCombine: combine == "auto"})
					if err != nil {
						b.Fatal(err)
					}
					counts = res.MessageCounts()
				}
				b.ReportMetric(float64(counts.Wire), "messages")
				b.ReportMetric(float64(counts.Delivered), "delivered")
			})
			for _, wire := range []string{"raw", "varint"} {
				b.Run(fmt.Sprintf("%s/tcp/wire=%s/combine=%s", tc.name, wire, combine), func(b *testing.B) {
					runTCP(b, tc.prog, tc.width, combine == "auto", wireFormats[wire])
				})
			}
		}
	}
}

// BenchmarkSessionReuse quantifies the Session API's amortization on the
// ablation workload (k=8, CC): "full-pipeline" re-pays partition + build +
// mesh setup on every job — the only mode before the Session API —
// while "session" opens one deployment outside the timed region and serves
// each iteration as a job, so its per-op time is the steady-state per-job
// latency excluding load/partition/build. "session-concurrent" serves jobs
// from GOMAXPROCS goroutines over one deployment, the graph-service
// regime. CI runs this once per build and uploads the output as the
// BENCH_session.json artifact; EXPERIMENTS.md records the numbers.
func BenchmarkSessionReuse(b *testing.B) {
	g := ablationGraph(b)
	const k = 8
	pipe := func() *ebv.Pipeline {
		return ebv.NewPipeline(
			ebv.FromGraph(g),
			ebv.UsePartitioner(ebv.NewEBV()),
			ebv.Subgraphs(k),
		)
	}
	b.Run("full-pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pipe().Run(context.Background(), &apps.CC{}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(g.NumEdges()))
	})
	b.Run("session", func(b *testing.B) {
		s, err := pipe().Open(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		// One warm-up job off the clock: the first job pays the lazily
		// created frame writers and cold batch pools.
		if _, err := s.Run(context.Background(), &apps.CC{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Run(context.Background(), &apps.CC{}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(g.NumEdges()))
	})
	b.Run("session-concurrent", func(b *testing.B) {
		s, err := pipe().Open(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Run(context.Background(), &apps.CC{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := s.Run(context.Background(), &apps.CC{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.SetBytes(int64(g.NumEdges()))
	})
}

// BenchmarkPartitionerThroughput measures raw edges/second of every
// partitioner on the same workload.
func BenchmarkPartitionerThroughput(b *testing.B) {
	g := ablationGraph(b)
	for _, p := range harness.PaperPartitioners() {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Partition(g, 16); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(g.NumEdges()))
		})
	}
}
