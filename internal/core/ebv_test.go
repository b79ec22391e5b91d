package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

func powerLawGraph(t *testing.T, eta float64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 3000, NumEdges: 24000, Eta: eta, Directed: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEBVBasics(t *testing.T) {
	g := powerLawGraph(t, 2.2, 1)
	e := New()
	for _, k := range []int{1, 2, 4, 12} {
		a, err := e.Partition(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		m, err := partition.ComputeMetrics(g, a)
		if err != nil {
			t.Fatal(err)
		}
		if k > 1 {
			// The paper's Table III: EBV imbalances ≈ 1.00.
			if m.EdgeImbalance > 1.05 {
				t.Errorf("k=%d edge imbalance %.3f, want ≈1", k, m.EdgeImbalance)
			}
			if m.VertexImbalance > 1.10 {
				t.Errorf("k=%d vertex imbalance %.3f, want ≈1", k, m.VertexImbalance)
			}
		}
	}
}

func TestEBVRejectsBadInput(t *testing.T) {
	g := powerLawGraph(t, 2.2, 1)
	if _, err := New().Partition(g, 0); !errors.Is(err, partition.ErrBadPartCount) {
		t.Fatalf("err = %v, want ErrBadPartCount", err)
	}
	if _, err := New(WithAlpha(-1)).Partition(g, 2); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

func TestEBVDeterministic(t *testing.T) {
	g := powerLawGraph(t, 2.0, 2)
	a1, err := New().Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := New().Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Parts {
		if a1.Parts[i] != a2.Parts[i] {
			t.Fatalf("edge %d assigned differently across runs", i)
		}
	}
}

// TestFigure1Example reproduces the paper's Figure 1: a 6-vertex undirected
// graph where sorting preprocessing yields a balanced 3/3 edge split while
// alphabetical (input) order, forced to keep balance, must cut extra
// vertices. We verify the qualitative claim: EBV-sort's replication factor
// is no worse than EBV-unsort's on the alphabetically-ordered edge list,
// and both splits are edge-balanced.
func TestFigure1Example(t *testing.T) {
	// Vertices A..F = 0..5. Edges of the raw graph in alphabetical order:
	// (A,B),(A,C),(A,D),(A,E),(A,F),(B,C). A is the high-degree hub.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4}, {Src: 0, Dst: 5}, {Src: 1, Dst: 2}}
	g, err := graph.New(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := New(WithOrder(OrderSorted)).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	unsorted, err := New(WithOrder(OrderInput)).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := partition.ComputeMetrics(g, sorted)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := partition.ComputeMetrics(g, unsorted)
	if err != nil {
		t.Fatal(err)
	}
	if ms.EdgesPerPart[0] != 3 || ms.EdgesPerPart[1] != 3 {
		t.Errorf("EBV-sort edge split %v, want [3 3]", ms.EdgesPerPart)
	}
	if ms.ReplicationFactor > mu.ReplicationFactor {
		t.Errorf("sorted RF %.3f > unsorted RF %.3f; Figure 1 effect inverted",
			ms.ReplicationFactor, mu.ReplicationFactor)
	}
	// The low-degree edge (B,C) must be processed first under sorting.
	order := g.SortedBySumDegree()
	if first := g.Edge(int(order[0])); first != (graph.Edge{Src: 1, Dst: 2}) {
		t.Errorf("first sorted edge %v, want (B,C)=(1,2)", first)
	}
}

func TestEBVSortBeatsUnsortOnPowerLaw(t *testing.T) {
	// §V-D: sorting preprocessing reduces the final replication factor on
	// power-law graphs, with the margin growing in the subgraph count.
	g := powerLawGraph(t, 2.0, 3)
	for _, k := range []int{8, 16} {
		sorted, err := New(WithOrder(OrderSorted)).Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		unsorted, err := New(WithOrder(OrderInput)).Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := partition.ComputeMetrics(g, sorted)
		if err != nil {
			t.Fatal(err)
		}
		mu, err := partition.ComputeMetrics(g, unsorted)
		if err != nil {
			t.Fatal(err)
		}
		if ms.ReplicationFactor >= mu.ReplicationFactor {
			t.Errorf("k=%d: sort RF %.4f >= unsort RF %.4f",
				k, ms.ReplicationFactor, mu.ReplicationFactor)
		}
	}
}

func TestTheoremBoundsHold(t *testing.T) {
	// Theorems 1 and 2: the imbalance factors never exceed the proven
	// worst-case bounds, for any graph and any positive α, β.
	configs := []struct {
		alpha, beta float64
	}{
		{1, 1}, {0.5, 2}, {2, 0.5}, {5, 5}, {0.1, 0.1},
	}
	g := powerLawGraph(t, 2.3, 4)
	for _, cfg := range configs {
		for _, k := range []int{2, 4, 8} {
			e := New(WithAlpha(cfg.alpha), WithBeta(cfg.beta))
			a, err := e.Partition(g, k)
			if err != nil {
				t.Fatal(err)
			}
			m, err := partition.ComputeMetrics(g, a)
			if err != nil {
				t.Fatal(err)
			}
			totalReplicas := 0
			for _, v := range m.VerticesPerPart {
				totalReplicas += v
			}
			eBound := e.EdgeImbalanceBound(g.NumEdges(), k)
			vBound := e.VertexImbalanceBound(g.NumVertices(), totalReplicas, k)
			if m.EdgeImbalance > eBound {
				t.Errorf("α=%g β=%g k=%d: edge imbalance %.4f exceeds Theorem 1 bound %.4f",
					cfg.alpha, cfg.beta, k, m.EdgeImbalance, eBound)
			}
			if m.VertexImbalance > vBound {
				t.Errorf("α=%g β=%g k=%d: vertex imbalance %.4f exceeds Theorem 2 bound %.4f",
					cfg.alpha, cfg.beta, k, m.VertexImbalance, vBound)
			}
		}
	}
}

func TestTheoremBoundsQuick(t *testing.T) {
	// Property test over random graphs: bounds hold for arbitrary seeds.
	check := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(gen.ErdosRenyiConfig{
			NumVertices: 300, NumEdges: 1500, Directed: true, Seed: seed,
		})
		if err != nil {
			return false
		}
		e := New()
		a, err := e.Partition(g, 4)
		if err != nil {
			return false
		}
		m, err := partition.ComputeMetrics(g, a)
		if err != nil {
			return false
		}
		return m.EdgeImbalance <= e.EdgeImbalanceBound(g.NumEdges(), 4)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthTracking(t *testing.T) {
	g := powerLawGraph(t, 2.2, 5)
	numE := g.NumEdges()
	// An exact divisor of |E| (the loop's own sample is the final one)
	// and a non-divisor (the final sample comes after the loop).
	n := 20
	for numE%n != 0 {
		n++
	}
	for _, every := range []int{numE / n, numE/n + 1} {
		var growth growthLog
		e := New(WithGrowthTracking(every, growth.record))
		if _, err := e.Partition(g, 8); err != nil {
			t.Fatal(err)
		}
		positions, samples := growth.positions, growth.rf
		if want := (numE + every - 1) / every; len(samples) != want {
			t.Fatalf("every=%d: %d growth samples, want ⌈%d/%d⌉ = %d", every, len(samples), numE, every, want)
		}
		for i := 1; i < len(samples); i++ {
			if positions[i] <= positions[i-1] {
				t.Fatalf("every=%d: positions not strictly increasing at %d: %v", every, i, positions)
			}
			// RF is monotonically non-decreasing along the stream.
			if samples[i] < samples[i-1] {
				t.Fatalf("every=%d: RF decreased at sample %d: %g -> %g", every, i, samples[i-1], samples[i])
			}
		}
		// Final sample covers the full edge count.
		if last := positions[len(positions)-1]; last != numE {
			t.Fatalf("every=%d: last sample at %d, want %d", every, last, numE)
		}
	}
}

func TestEBVNames(t *testing.T) {
	if got := New().Name(); got != "EBV" {
		t.Errorf("Name = %q", got)
	}
	if got := New(WithOrder(OrderInput)).Name(); got != "EBV-unsort" {
		t.Errorf("Name = %q", got)
	}
	if got := New(WithOrder(OrderSortedDesc)).Name(); got != "EBV-sort-desc" {
		t.Errorf("Name = %q", got)
	}
}

func TestEBVEmptyGraph(t *testing.T) {
	g, err := graph.New(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New().Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Parts) != 0 {
		t.Fatal("non-empty assignment for empty graph")
	}
}

func TestAlphaBetaAccessors(t *testing.T) {
	e := New(WithAlpha(2.5), WithBeta(0.25))
	if e.Alpha() != 2.5 || e.Beta() != 0.25 {
		t.Fatalf("accessors returned %g/%g", e.Alpha(), e.Beta())
	}
}

// referencePartition is Algorithm 1 as first written: one Bitset per
// subgraph and a branchy score loop. PartitionCtx must reproduce its
// assignment and growth samples exactly; only the duplicate final growth
// sample on an exact multiple of growthEvery is fixed here as well.
func referencePartition(e *EBV, g *graph.Graph, k int) *partition.Assignment {
	numE, numV := g.NumEdges(), g.NumVertices()
	a := partition.NewAssignment(k, numE)
	if numE == 0 {
		return a
	}
	order := e.edgeOrder(g)
	keep := make([]partition.Bitset, k)
	for i := range keep {
		keep[i] = partition.NewBitset(numV)
	}
	ecount := make([]int, k)
	vcount := make([]int, k)
	eNorm := e.alpha / (float64(numE) / float64(k))
	vNorm := e.beta / (float64(numV) / float64(k))

	totalReplicas := 0
	for idx, edgeID := range order {
		ed := g.Edge(int(edgeID))
		u, v := int(ed.Src), int(ed.Dst)

		best := 0
		bestScore := math.Inf(1)
		for i := 0; i < k; i++ {
			score := float64(ecount[i])*eNorm + float64(vcount[i])*vNorm
			if !keep[i].Get(u) {
				score++
			}
			if !keep[i].Get(v) {
				score++
			}
			if score < bestScore {
				bestScore = score
				best = i
			}
		}

		a.Parts[edgeID] = int32(best)
		ecount[best]++
		if !keep[best].Get(u) {
			keep[best].Set(u)
			vcount[best]++
			totalReplicas++
		}
		if !keep[best].Get(v) {
			keep[best].Set(v)
			vcount[best]++
			totalReplicas++
		}

		if e.growth != nil && e.growthEvery > 0 && (idx+1)%e.growthEvery == 0 {
			e.growth(idx+1, float64(totalReplicas)/float64(numV))
		}
	}
	if e.growth != nil && e.growthEvery > 0 && numE%e.growthEvery != 0 {
		e.growth(numE, float64(totalReplicas)/float64(numV))
	}
	return a
}

// growthLog records growth samples for comparison.
type growthLog struct {
	positions []int
	rf        []float64
}

func (l *growthLog) record(processed int, rf float64) {
	l.positions = append(l.positions, processed)
	l.rf = append(l.rf, rf)
}

// TestPartitionMatchesReference checks PartitionCtx against the reference
// loop across every order, subgraph counts on both sides of the one-word
// and multi-word membership boundaries, and several (α, β).
func TestPartitionMatchesReference(t *testing.T) {
	// A multigraph with repeated pairs, self-loops and isolated vertices,
	// beside a power-law graph.
	r := rand.New(rand.NewPCG(5, 17))
	multi := make([]graph.Edge, 3000)
	for i := range multi {
		multi[i] = graph.Edge{Src: graph.VertexID(r.IntN(300)), Dst: graph.VertexID(r.IntN(300))}
	}
	mg, err := graph.New(320, multi)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 1500, NumEdges: 9000, Eta: 2.0, Directed: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"multigraph": mg, "powerlaw": pl}
	const every = 700 // not a divisor of either edge count

	for name, g := range graphs {
		for _, order := range []Order{OrderSorted, OrderInput, OrderSortedDesc} {
			for _, k := range []int{1, 2, 8, 63, 64, 65, 130} {
				for _, ab := range [][2]float64{{1, 1}, {0, 1}, {1, 0}, {0.5, 2}} {
					label := fmt.Sprintf("%s/%s/k%d/a%g-b%g", name, order, k, ab[0], ab[1])
					var wantLog, gotLog growthLog
					opts := []Option{WithOrder(order), WithAlpha(ab[0]), WithBeta(ab[1])}
					want := referencePartition(New(append(opts, WithGrowthTracking(every, wantLog.record))...), g, k)
					got, err := New(append(opts, WithGrowthTracking(every, gotLog.record))...).PartitionCtx(context.Background(), g, k)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got.K != want.K || !slices.Equal(got.Parts, want.Parts) {
						t.Fatalf("%s: assignment differs from the reference loop", label)
					}
					if !slices.Equal(gotLog.positions, wantLog.positions) || !slices.Equal(gotLog.rf, wantLog.rf) {
						t.Fatalf("%s: growth samples differ: got %v %v, want %v %v",
							label, gotLog.positions, gotLog.rf, wantLog.positions, wantLog.rf)
					}
				}
			}
		}
	}
}

// TestParallelEBVPinned pins ParallelEBV's assignment on a fixed graph by
// its FNV-64a digest, so a change to the shared degree-sum sort cannot
// drift it unnoticed.
func TestParallelEBVPinned(t *testing.T) {
	g := powerLawGraph(t, 2.2, 1)
	a, err := (&ParallelEBV{Workers: 4}).Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, p := range a.Parts {
		h.Write([]byte{byte(p)})
	}
	const want = uint64(0xb17c2b650c418b03)
	if got := h.Sum64(); got != want {
		t.Fatalf("ParallelEBV assignment digest %#x, want %#x", got, want)
	}
}
