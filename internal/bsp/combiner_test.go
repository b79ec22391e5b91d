// Combiner tests: the sender/receiver message-combining path must be
// semantically transparent — every app produces a byte-identical
// ValueMatrix with combining on or off, on the in-memory router and the
// TCP mesh, at scalar and vector widths — while strictly reducing message
// rows where duplicates exist (receiver-side on a high-fan-in star graph;
// sender-side for per-edge-messaging programs).
package bsp_test

import (
	"fmt"
	"testing"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/partition"
	"ebv/internal/transport"
)

// combinerApps returns one instance of each evaluation app (all five
// declare a natural combiner).
func combinerApps() []bsp.Program {
	return []bsp.Program{
		&apps.CC{},
		&apps.PageRank{Iterations: 6},
		&apps.SSSP{Source: 0},
		&apps.WeightedSSSP{Source: 0},
		&apps.Aggregate{Layers: 2},
	}
}

// buildWeightedSubs builds subgraphs carrying hash weights (WeightedSSSP
// exercises them; every other app ignores them).
func buildWeightedSubs(t *testing.T, g *graph.Graph, a *partition.Assignment) []*bsp.Subgraph {
	t.Helper()
	subs, err := bsp.BuildSubgraphsWeighted(g, a, graph.HashWeights(g, 7, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

// TestCombinerEquivalenceAllApps is the acceptance matrix: every app ×
// {combiner on, off} × {Mem, TCP} × widths {1, 8} produces a byte-identical
// ValueMatrix, with combined counts never exceeding uncombined ones.
func TestCombinerEquivalenceAllApps(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	const k = 3
	a, err := core.New().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := buildWeightedSubs(t, g, a)
	for _, prog := range combinerApps() {
		for _, width := range []int{1, 8} {
			for _, trName := range []string{"mem", "tcp"} {
				t.Run(fmt.Sprintf("%s/w%d/%s", prog.Name(), width, trName), func(t *testing.T) {
					cfg := bsp.Config{ValueWidth: width, VerifyReplicaAgreement: true}
					if trName == "tcp" {
						cfg.Transports = tcpTransports(t, k, width)
					}
					off, err := bsp.Run(subs, prog, cfg)
					if err != nil {
						t.Fatalf("combiner off: %v", err)
					}
					cfg.AutoCombine = true
					if trName == "tcp" {
						cfg.Transports = tcpTransports(t, k, width)
					}
					on, err := bsp.Run(subs, prog, cfg)
					if err != nil {
						t.Fatalf("combiner on: %v", err)
					}
					if !on.Values.EqualValues(off.Values) {
						t.Fatal("combined values differ from uncombined (byte-identity violated)")
					}
					if on.Steps != off.Steps {
						t.Fatalf("combined run took %d steps, uncombined %d", on.Steps, off.Steps)
					}
					oc, fc := on.MessageCounts(), off.MessageCounts()
					if fc.Emitted != fc.Wire || fc.Wire != fc.Delivered {
						t.Fatalf("uncombined counts disagree: %+v", fc)
					}
					if oc.Emitted != fc.Emitted {
						t.Fatalf("combined run emitted %d rows, uncombined %d", oc.Emitted, fc.Emitted)
					}
					if oc.Wire > oc.Emitted || oc.Delivered > oc.Wire {
						t.Fatalf("combining increased counts: %+v", oc)
					}
					if on.TotalMessages() != oc.Wire {
						t.Fatalf("TotalMessages = %d, want the wire count %d", on.TotalMessages(), oc.Wire)
					}
				})
			}
		}
	}
}

// starGraph builds a high-fan-in star (every leaf points at the hub,
// vertex 0) with a round-robin edge assignment, so the hub is replicated
// in every part and each part's hub rows arrive from every peer.
func starGraph(t *testing.T, leaves, k int) (*graph.Graph, []*bsp.Subgraph) {
	t.Helper()
	edges := make([]graph.Edge, leaves)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i + 1), Dst: 0}
	}
	g, err := graph.New(leaves+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int32, len(edges))
	for i := range parts {
		parts[i] = int32(i % k)
	}
	subs, err := bsp.BuildSubgraphs(g, &partition.Assignment{K: k, Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	return g, subs
}

// TestCombinerStarGraphReceiverReduction crafts the high-fan-in case: the
// hub's rows arrive at every worker from every peer, so receiver-side
// combining must deliver strictly fewer rows — with byte-identical values
// and unchanged wire counts (the replica-sync apps emit unique-ID batches).
func TestCombinerStarGraphReceiverReduction(t *testing.T) {
	_, subs := starGraph(t, 200, 4)
	for _, prog := range []bsp.Program{&apps.CC{}, &apps.PageRank{Iterations: 4}} {
		t.Run(prog.Name(), func(t *testing.T) {
			off, err := bsp.Run(subs, prog, bsp.Config{VerifyReplicaAgreement: true})
			if err != nil {
				t.Fatal(err)
			}
			on, err := bsp.Run(subs, prog, bsp.Config{VerifyReplicaAgreement: true, AutoCombine: true})
			if err != nil {
				t.Fatal(err)
			}
			if !on.Values.EqualValues(off.Values) {
				t.Fatal("combined values differ from uncombined on the star graph")
			}
			oc, fc := on.MessageCounts(), off.MessageCounts()
			if oc.Wire != fc.Wire {
				t.Fatalf("wire counts changed: combined %d, uncombined %d", oc.Wire, fc.Wire)
			}
			if oc.Delivered >= fc.Delivered {
				t.Fatalf("receiver-side combining delivered %d rows, want strictly fewer than %d",
					oc.Delivered, fc.Delivered)
			}
		})
	}
}

// fanInDegree is a crafted per-edge-messaging program (the vertex-centric
// fan-in pattern the subgraph-centric apps avoid): step 0 sends one row
// per local edge to the destination's master, step 1 masters sum the rows
// into the global in-degree and scatter it to the mirrors, step 2 mirrors
// install it. Its outgoing batches are full of duplicate IDs, so
// sender-side combining must strictly shrink the wire volume.
type fanInDegree struct{}

func (*fanInDegree) Name() string { return "fan-in-degree" }

func (*fanInDegree) MessageCombiner() transport.Combiner { return transport.SumCombiner{} }

func (*fanInDegree) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return &fanInWorker{sub: sub, env: env, acc: make([]float64, sub.NumLocalVertices())}
}

type fanInWorker struct {
	sub *bsp.Subgraph
	env bsp.Env
	acc []float64
}

func (w *fanInWorker) outTo(out []*transport.MessageBatch, dst int32) *transport.MessageBatch {
	if out[dst] == nil {
		out[dst] = w.env.NewBatch()
	}
	return out[dst]
}

func (w *fanInWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	self := int32(w.sub.Part)
	switch step {
	case 0:
		out := make([]*transport.MessageBatch, w.sub.NumWorkers)
		for _, e := range w.sub.Edges {
			w.outTo(out, w.sub.Master(int32(e.Dst))).AppendScalar(w.sub.GlobalIDs[e.Dst], 1)
		}
		return out, false
	case 1:
		for i, gid := range in.IDs {
			if local, ok := w.sub.LocalOf(gid); ok && w.sub.Master(local) == self {
				w.acc[local] += in.Scalar(i)
			}
		}
		out := make([]*transport.MessageBatch, w.sub.NumWorkers)
		for _, local := range w.sub.ReplicatedVertices() {
			if w.sub.Master(local) != self {
				continue
			}
			gid := w.sub.GlobalIDs[local]
			for _, peer := range w.sub.ReplicaPeers[local] {
				w.outTo(out, peer).AppendScalar(gid, w.acc[local])
			}
		}
		return out, false
	default:
		for i, gid := range in.IDs {
			if local, ok := w.sub.LocalOf(gid); ok {
				w.acc[local] = in.Scalar(i)
			}
		}
		return nil, false
	}
}

func (w *fanInWorker) Values() *graph.ValueMatrix {
	vals := w.env.NewValues(w.sub.NumLocalVertices())
	for l, v := range w.acc {
		vals.SetScalar(l, v)
	}
	return vals
}

// TestCombinerSenderSideStrictReduction runs the per-edge fan-in program on
// the star graph and the power-law graph: coalescing duplicate-ID rows at
// the sender must strictly shrink the wire count, leave the computed
// in-degrees exact, and stay byte-identical to the uncombined run — on Mem
// and on TCP.
func TestCombinerSenderSideStrictReduction(t *testing.T) {
	star, starSubs := starGraph(t, 200, 4)
	pl := testGraphs(t)["powerlaw"]
	const k = 4
	a, err := core.New().Partition(pl, k)
	if err != nil {
		t.Fatal(err)
	}
	plSubs, err := bsp.BuildSubgraphs(pl, a)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		subs []*bsp.Subgraph
	}{{"star", star, starSubs}, {"powerlaw", pl, plSubs}}
	for _, tc := range cases {
		for _, trName := range []string{"mem", "tcp"} {
			t.Run(tc.name+"/"+trName, func(t *testing.T) {
				cfg := bsp.Config{VerifyReplicaAgreement: true}
				if trName == "tcp" {
					cfg.Transports = tcpTransports(t, k, 1)
				}
				off, err := bsp.Run(tc.subs, &fanInDegree{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.AutoCombine = true
				if trName == "tcp" {
					cfg.Transports = tcpTransports(t, k, 1)
				}
				on, err := bsp.Run(tc.subs, &fanInDegree{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !on.Values.EqualValues(off.Values) {
					t.Fatal("combined fan-in values differ from uncombined")
				}
				for v := 0; v < tc.g.NumVertices(); v++ {
					got, ok := on.Value(graph.VertexID(v))
					if !ok {
						continue
					}
					if want := float64(tc.g.InDegree(graph.VertexID(v))); got != want {
						t.Fatalf("in-degree(%d) = %g, want %g", v, got, want)
					}
				}
				oc, fc := on.MessageCounts(), off.MessageCounts()
				if oc.Emitted != fc.Emitted {
					t.Fatalf("emitted rows differ: %d vs %d", oc.Emitted, fc.Emitted)
				}
				if oc.Wire >= fc.Wire {
					t.Fatalf("sender-side combining sent %d rows, want strictly fewer than %d",
						oc.Wire, fc.Wire)
				}
			})
		}
	}
}

// TestCombinerExplicitOverridesAuto: an explicit Config.Combiner wins over
// the program's declared one, and a program without a declared combiner
// runs uncombined under AutoCombine.
func TestCombinerExplicitOverridesAuto(t *testing.T) {
	_, subs := starGraph(t, 100, 3)
	// fanInDegree declares sum; an explicit min combiner must change the
	// computed "in-degree" of the hub to 1 (min of the per-edge 1-rows
	// is 1, and each mirror's scatter is still exact).
	res, err := bsp.Run(subs, &fanInDegree{}, bsp.Config{
		Combiner:    transport.MinCombiner{},
		AutoCombine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.Value(0); !ok || got != 1 {
		t.Fatalf("hub value under explicit min combiner = %g (ok=%v), want 1", got, ok)
	}
	// A program that declares no combiner must run uncombined under
	// AutoCombine: all three counts stay equal even on the star graph.
	plain, err := bsp.Run(subs, noCombiner{&apps.CC{}}, bsp.Config{AutoCombine: true})
	if err != nil {
		t.Fatal(err)
	}
	if c := plain.MessageCounts(); c.Emitted != c.Wire || c.Wire != c.Delivered {
		t.Fatalf("AutoCombine combined a program with no declared combiner: %+v", c)
	}
}

// noCombiner hides a program's CombinerProvider implementation (plain
// struct fields do not promote methods through the interface check).
type noCombiner struct{ inner bsp.Program }

func (p noCombiner) Name() string { return p.inner.Name() }

func (p noCombiner) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return p.inner.NewWorker(sub, env)
}

// sparseThenFanIn emits a single-row batch in its first two message
// steps (a frontier warming up from one source) and only then bursts
// duplicate-heavy per-edge batches — the adaptive sender-side probe must
// not mistake the sub-2-row steps for duplicate-free evidence and
// disable coalescing before the burst.
type sparseThenFanIn struct{}

func (*sparseThenFanIn) Name() string { return "sparse-then-fan-in" }

func (*sparseThenFanIn) MessageCombiner() transport.Combiner { return transport.SumCombiner{} }

func (*sparseThenFanIn) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return &sparseThenFanInWorker{sub: sub, env: env}
}

type sparseThenFanInWorker struct {
	sub *bsp.Subgraph
	env bsp.Env
}

func (w *sparseThenFanInWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	out := make([]*transport.MessageBatch, w.sub.NumWorkers)
	switch {
	case step < 2: // sparse frontier: one row to the next worker
		b := w.env.NewBatch()
		b.AppendScalar(w.sub.GlobalIDs[0], 1)
		out[(w.sub.Part+1)%w.sub.NumWorkers] = b
		return out, false
	case step == 2: // the burst: per-edge duplicate rows to each dst's master
		for _, e := range w.sub.Edges {
			master := w.sub.Master(int32(e.Dst))
			if out[master] == nil {
				out[master] = w.env.NewBatch()
			}
			out[master].AppendScalar(w.sub.GlobalIDs[e.Dst], 1)
		}
		return out, false
	default:
		return nil, false
	}
}

func (w *sparseThenFanInWorker) Values() *graph.ValueMatrix {
	return w.env.NewValues(w.sub.NumLocalVertices())
}

// TestCombinerAdaptiveProbeIgnoresTinyBatches: sub-2-row steps carry no
// duplicate information, so the burst after a sparse start must still be
// coalesced (wire strictly below emitted).
func TestCombinerAdaptiveProbeIgnoresTinyBatches(t *testing.T) {
	_, subs := starGraph(t, 200, 4)
	res, err := bsp.Run(subs, &sparseThenFanIn{}, bsp.Config{AutoCombine: true})
	if err != nil {
		t.Fatal(err)
	}
	c := res.MessageCounts()
	if c.Wire >= c.Emitted {
		t.Fatalf("burst after a sparse start crossed the wire uncombined: %+v", c)
	}
}
