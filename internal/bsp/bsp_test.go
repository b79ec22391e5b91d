package bsp_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/ginger"
	"ebv/internal/graph"
	"ebv/internal/metis"
	"ebv/internal/ne"
	"ebv/internal/partition"
)

func allPartitioners() []partition.Partitioner {
	return []partition.Partitioner{
		core.New(),
		&ginger.Ginger{},
		&partition.DBH{},
		&partition.CVC{},
		&ne.NE{},
		&metis.Metis{},
		&partition.Random{},
	}
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	pl, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 1200, NumEdges: 9000, Eta: 2.2, Directed: true, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	road, err := gen.Road(gen.RoadConfig{Width: 25, Height: 25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	und, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 800, NumEdges: 4000, Eta: 2.5, Directed: false, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"powerlaw": pl, "road": road, "undirected": und}
}

// assertScalars compares a run's scalar (column 0) values against a global
// oracle, skipping vertices no subgraph covers. tol < 0 selects exact
// equality with +Inf treated as equal to +Inf (the SSSP convention).
func assertScalars(t *testing.T, res *bsp.Result, want []float64, tol float64, label string) {
	t.Helper()
	for v := range want {
		got, ok := res.Value(graph.VertexID(v))
		if !ok {
			continue
		}
		w := want[v]
		if tol < 0 {
			if got != w && !(math.IsInf(got, 1) && math.IsInf(w, 1)) {
				t.Fatalf("%s: value(%d) = %g, want %g", label, v, got, w)
			}
		} else if math.Abs(got-w) > tol {
			t.Fatalf("%s: value(%d) = %.12g, want %.12g", label, v, got, w)
		}
	}
}

func buildSubs(t *testing.T, g *graph.Graph, p partition.Partitioner, k int) []*bsp.Subgraph {
	t.Helper()
	a, err := p.Partition(g, k)
	if err != nil {
		t.Fatalf("%s partition: %v", p.Name(), err)
	}
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		t.Fatalf("%s subgraphs: %v", p.Name(), err)
	}
	return subs
}

// TestSubgraphInvariants checks the structural invariants of subgraph
// construction for every partitioner.
func TestSubgraphInvariants(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	for _, p := range allPartitioners() {
		t.Run(p.Name(), func(t *testing.T) {
			subs := buildSubs(t, g, p, 4)
			totalEdges := 0
			replicaCount := map[graph.VertexID]int{}
			for _, sub := range subs {
				totalEdges += sub.NumLocalEdges()
				for local, gid := range sub.GlobalIDs {
					if l2, ok := sub.LocalOf(gid); !ok || int(l2) != local {
						t.Fatalf("LocalOf(%d) inconsistent", gid)
					}
					replicaCount[gid]++
					// ReplicaPeers must be consistent with the global count.
					if got := len(sub.ReplicaPeers[local]); got != 0 && sub.Master(int32(local)) > int32(sub.Part) && sub.ReplicaPeers[local][0] < int32(sub.Part) {
						t.Fatalf("Master inconsistent for %d", gid)
					}
				}
			}
			if totalEdges != g.NumEdges() {
				t.Fatalf("Σ local edges = %d, want %d", totalEdges, g.NumEdges())
			}
			for _, sub := range subs {
				for local := range sub.GlobalIDs {
					want := replicaCount[sub.GlobalIDs[local]] - 1
					if got := len(sub.ReplicaPeers[local]); got != want {
						t.Fatalf("vertex %d: %d peers, want %d",
							sub.GlobalIDs[local], got, want)
					}
				}
			}
		})
	}
}

// TestCCAgreesWithSequential is the partition-independence invariant: CC on
// the BSP engine must equal the sequential oracle for every partitioner.
func TestCCAgreesWithSequential(t *testing.T) {
	for name, g := range testGraphs(t) {
		want := apps.SequentialCC(g)
		for _, p := range allPartitioners() {
			for _, k := range []int{1, 3, 8} {
				subs := buildSubs(t, g, p, k)
				res, err := bsp.Run(subs, &apps.CC{}, bsp.Config{VerifyReplicaAgreement: true})
				if err != nil {
					t.Fatalf("%s/%s k=%d: %v", name, p.Name(), k, err)
				}
				assertScalars(t, res, want, -1,
					fmt.Sprintf("%s/%s k=%d CC", name, p.Name(), k))
			}
		}
	}
}

func TestSSSPAgreesWithSequential(t *testing.T) {
	for name, g := range testGraphs(t) {
		src := graph.VertexID(0)
		want := apps.SequentialSSSP(g, src)
		for _, p := range allPartitioners() {
			for _, k := range []int{1, 4} {
				subs := buildSubs(t, g, p, k)
				res, err := bsp.Run(subs, &apps.SSSP{Source: src}, bsp.Config{VerifyReplicaAgreement: true})
				if err != nil {
					t.Fatalf("%s/%s k=%d: %v", name, p.Name(), k, err)
				}
				assertScalars(t, res, want, -1,
					fmt.Sprintf("%s/%s k=%d SSSP", name, p.Name(), k))
			}
		}
	}
}

func TestPageRankAgreesWithSequential(t *testing.T) {
	const iters = 8
	for name, g := range testGraphs(t) {
		want := apps.SequentialPageRank(g, iters, 0.85)
		for _, p := range allPartitioners() {
			subs := buildSubs(t, g, p, 4)
			res, err := bsp.Run(subs, &apps.PageRank{Iterations: iters}, bsp.Config{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, p.Name(), err)
			}
			assertScalars(t, res, want, 1e-9,
				fmt.Sprintf("%s/%s PR", name, p.Name()))
		}
	}
}

func TestPageRankStepCount(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	res, err := bsp.Run(subs, &apps.PageRank{Iterations: 5}, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 supersteps per iteration + the final install step.
	if res.Steps != 2*5+1 {
		t.Fatalf("Steps = %d, want 11", res.Steps)
	}
}

func TestRunOverTCP(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 3)
	res, err := bsp.Run(subs, &apps.CC{}, bsp.Config{Transports: tcpTransports(t, 3, 1), VerifyReplicaAgreement: true})
	if err != nil {
		t.Fatal(err)
	}
	assertScalars(t, res, apps.SequentialCC(g), -1, "TCP CC")
}

func TestStatsPopulated(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, &partition.DBH{}, 4)
	res, err := bsp.Run(subs, &apps.CC{}, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 2 {
		t.Fatalf("Steps = %d, want >= 2", res.Steps)
	}
	if res.TotalMessages() == 0 {
		t.Fatal("no messages counted for a 4-way cut")
	}
	if got := res.MaxMeanMessageRatio(); got < 1 {
		t.Fatalf("max/mean ratio %g < 1", got)
	}
	if res.DeltaC() < 0 {
		t.Fatalf("ΔC negative")
	}
	if res.AvgComp() <= 0 {
		t.Fatalf("AvgComp = %v", res.AvgComp())
	}
	for w := range res.Workers {
		ws := &res.Workers[w]
		if len(ws.Comp) != res.Steps || len(ws.Sent) != res.Steps {
			t.Fatalf("worker %d: %d comp records for %d steps", w, len(ws.Comp), res.Steps)
		}
	}
	segs := res.Timeline()
	if len(segs) != 3*res.Steps*len(res.Workers) {
		t.Fatalf("timeline has %d segments", len(segs))
	}
}

func TestMessagesTrackReplication(t *testing.T) {
	// §V-C: message totals follow the replication factor. EBV must send
	// fewer CC messages than Random on a power-law graph.
	g := testGraphs(t)["powerlaw"]
	run := func(p partition.Partitioner) int64 {
		subs := buildSubs(t, g, p, 8)
		res, err := bsp.Run(subs, &apps.CC{}, bsp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalMessages()
	}
	ebvMsgs := run(core.New())
	randMsgs := run(&partition.Random{})
	if ebvMsgs >= randMsgs {
		t.Fatalf("EBV messages %d >= Random messages %d", ebvMsgs, randMsgs)
	}
}

func TestCCSendAllStillCorrect(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	want := apps.SequentialCC(g)
	subs := buildSubs(t, g, core.New(), 4)
	res, err := bsp.Run(subs, &apps.CC{SendAll: true}, bsp.Config{VerifyReplicaAgreement: true})
	if err != nil {
		t.Fatal(err)
	}
	assertScalars(t, res, want, -1, "CC send-all")
}

func TestBuildSubgraphsRejectsMismatch(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	a := partition.NewAssignment(2, 5)
	if _, err := bsp.BuildSubgraphs(g, a); err == nil {
		t.Fatal("mismatched assignment accepted")
	}
}

func TestRunRejectsEmptySubgraphs(t *testing.T) {
	if _, err := bsp.Run(nil, &apps.CC{}, bsp.Config{}); err == nil {
		t.Fatal("empty subgraph list accepted")
	}
}

func TestAggregateAgreesWithSequential(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	want := apps.SequentialAggregate(g, 3, 1, nil)
	for _, p := range allPartitioners() {
		subs := buildSubs(t, g, p, 4)
		res, err := bsp.Run(subs, &apps.Aggregate{Layers: 3}, bsp.Config{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		assertScalars(t, res, want.Data, 1e-9, p.Name()+" aggregate")
	}
}

func TestAggregateCustomFeature(t *testing.T) {
	g := testGraphs(t)["road"]
	feature := func(v graph.VertexID, feat []float64) { feat[0] = float64(v&1) * 3 }
	want := apps.SequentialAggregate(g, 2, 1, feature)
	subs := buildSubs(t, g, core.New(), 3)
	res, err := bsp.Run(subs, &apps.Aggregate{Layers: 2, Feature: feature}, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertScalars(t, res, want.Data, 1e-9, "aggregate custom feature")
}

// TestAggregateWideAgreesWithSequential runs the width-8 feature
// aggregation and checks every column of every covered vertex against the
// width-aware oracle.
func TestAggregateWideAgreesWithSequential(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	const width = 8
	want := apps.SequentialAggregate(g, 2, width, nil)
	for _, k := range []int{1, 4} {
		subs := buildSubs(t, g, core.New(), k)
		res, err := bsp.Run(subs, &apps.Aggregate{Layers: 2},
			bsp.Config{ValueWidth: width, VerifyReplicaAgreement: true})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Values.Width != width {
			t.Fatalf("k=%d: result width %d", k, res.Values.Width)
		}
		for v := 0; v < g.NumVertices(); v++ {
			row, ok := res.Row(graph.VertexID(v))
			if !ok {
				continue
			}
			for j, got := range row {
				if math.Abs(got-want.At(v, j)) > 1e-9 {
					t.Fatalf("k=%d: h(%d)[%d] = %.12g, want %.12g",
						k, v, j, got, want.At(v, j))
				}
			}
		}
	}
}

// TestRunRejectsBadValueWidth: the engine refuses negative widths with a
// clear diagnostic instead of mis-striding.
func TestRunRejectsBadValueWidth(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 2)
	_, err := bsp.Run(subs, &apps.CC{}, bsp.Config{ValueWidth: -2})
	if err == nil || !strings.Contains(err.Error(), "value width") {
		t.Fatalf("err = %v, want a value-width diagnostic", err)
	}
}

func TestWeightedSSSPAgreesWithSequential(t *testing.T) {
	for name, g := range testGraphs(t) {
		weights := graph.HashWeights(g, 99, 1, 10)
		src := graph.VertexID(0)
		want := apps.SequentialWeightedSSSP(g, src, weights)
		for _, p := range allPartitioners()[:4] { // EBV, Ginger, DBH, CVC
			for _, k := range []int{1, 4} {
				a, err := p.Partition(g, k)
				if err != nil {
					t.Fatalf("%s: %v", p.Name(), err)
				}
				subs, err := bsp.BuildSubgraphsWeighted(g, a, weights)
				if err != nil {
					t.Fatal(err)
				}
				res, err := bsp.Run(subs, &apps.WeightedSSSP{Source: src},
					bsp.Config{VerifyReplicaAgreement: true})
				if err != nil {
					t.Fatalf("%s/%s k=%d: %v", name, p.Name(), k, err)
				}
				assertScalars(t, res, want, -1,
					fmt.Sprintf("%s/%s k=%d WSSSP", name, p.Name(), k))
			}
		}
	}
}

func TestWeightedSSSPUnitWeightsMatchesBFS(t *testing.T) {
	// Without weights attached, WeightedSSSP degenerates to the BFS SSSP.
	g := testGraphs(t)["powerlaw"]
	want := apps.SequentialSSSP(g, 0)
	subs := buildSubs(t, g, core.New(), 3)
	res, err := bsp.Run(subs, &apps.WeightedSSSP{Source: 0}, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertScalars(t, res, want, -1, "WSSSP unit weights")
}

func TestBuildSubgraphsWeightedValidation(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	a, err := core.New().Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bsp.BuildSubgraphsWeighted(g, a, make(graph.EdgeWeights, 3)); err == nil {
		t.Fatal("short weight vector accepted")
	}
	subs, err := bsp.BuildSubgraphsWeighted(g, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if subs[0].Weights != nil {
		t.Fatal("nil weights materialized")
	}
	if subs[0].EdgeWeight(0) != 1 {
		t.Fatal("unit weight default broken")
	}
}
