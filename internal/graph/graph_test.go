package graph

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := New(n, edges)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func TestNewBasics(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if g.NumVertices() != 4 {
		t.Errorf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d, want 5", g.NumEdges())
	}
	if got := g.OutDegree(0); got != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.InDegree(2); got != 2 {
		t.Errorf("InDegree(2) = %d, want 2", got)
	}
	if got := g.Degree(0); got != 3 {
		t.Errorf("Degree(0) = %d, want 3", got)
	}
	if g.Undirected() {
		t.Error("directed graph reported undirected")
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	if _, err := New(2, []Edge{{0, 5}}); !errors.Is(err, ErrVertexOutOfRange) {
		t.Fatalf("err = %v, want ErrVertexOutOfRange", err)
	}
	if _, err := New(-1, nil); err == nil {
		t.Fatal("negative vertex count accepted")
	}
}

func TestNewUndirectedMirrors(t *testing.T) {
	g, err := NewUndirected(3, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatalf("NewUndirected: %v", err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4 (mirrored)", g.NumEdges())
	}
	if !g.Undirected() {
		t.Error("undirected flag not set")
	}
	if g.OutDegree(1) != 2 || g.InDegree(1) != 2 {
		t.Errorf("vertex 1 degrees out=%d in=%d, want 2/2", g.OutDegree(1), g.InDegree(1))
	}
}

func TestNewUndirectedSelfLoopStoredOnce(t *testing.T) {
	g, err := NewUndirected(2, []Edge{{0, 0}, {0, 1}})
	if err != nil {
		t.Fatalf("NewUndirected: %v", err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (loop once + mirrored pair)", g.NumEdges())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := mustGraph(t, 0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if g.AverageDegree() != 0 {
		t.Errorf("AverageDegree = %g, want 0", g.AverageDegree())
	}
	if g.MaxDegree() != 0 {
		t.Errorf("MaxDegree = %d, want 0", g.MaxDegree())
	}
}

func TestSortedBySumDegree(t *testing.T) {
	// Star around 0 plus a pendant pair: the pendant edge (3,4)... build
	// explicit graph: 0-1, 0-2, 0-3, 4-5. Degrees: 0:3, 1..3:1, 4:1, 5:1.
	g := mustGraph(t, 6, []Edge{{0, 1}, {0, 2}, {0, 3}, {4, 5}})
	order := g.SortedBySumDegree()
	if len(order) != 4 {
		t.Fatalf("order length %d", len(order))
	}
	// (4,5) has degree sum 2, the star edges have 4; (4,5) must be first.
	first := g.Edge(int(order[0]))
	if first.Src != 4 || first.Dst != 5 {
		t.Errorf("first edge %v, want (4,5)", first)
	}
	// Ties broken by (src, dst): star edges must appear in input order.
	for i := 1; i < 4; i++ {
		e := g.Edge(int(order[i]))
		if e.Src != 0 || e.Dst != VertexID(i) {
			t.Errorf("order[%d] = %v, want (0,%d)", i, e, i)
		}
	}
}

func TestSortedBySumDegreeDeterministic(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{0, 1}, {2, 3}, {1, 2}, {3, 4}, {4, 0}})
	a := g.SortedBySumDegree()
	b := g.SortedBySumDegree()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
}

// referenceSortedBySumDegree is the comparison sort the counting passes of
// SortedBySumDegree replace: a stable sort by (degree sum, src, dst), so
// equal keys keep input order.
func referenceSortedBySumDegree(g *Graph) []int32 {
	order := make([]int32, g.NumEdges())
	for i := range order {
		order[i] = int32(i)
	}
	key := func(i int32) int64 {
		e := g.edges[i]
		return int64(g.outDeg[e.Src]+g.inDeg[e.Src]) + int64(g.outDeg[e.Dst]+g.inDeg[e.Dst])
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := key(order[a]), key(order[b])
		if ka != kb {
			return ka < kb
		}
		ea, eb := g.edges[order[a]], g.edges[order[b]]
		if ea.Src != eb.Src {
			return ea.Src < eb.Src
		}
		return ea.Dst < eb.Dst
	})
	return order
}

// randomMultigraph draws m edges over the first used of n vertices, so
// vertices [used, n) stay isolated; pairs repeat and self-loops occur
// because endpoints are drawn independently from a small range.
func randomMultigraph(r *rand.Rand, n, used, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: VertexID(r.IntN(used)), Dst: VertexID(r.IntN(used))}
	}
	return edges
}

func TestSortedBySumDegreeMatchesStableSort(t *testing.T) {
	type tc struct {
		name string
		g    *Graph
	}
	var cases []tc
	r := rand.New(rand.NewPCG(13, 2021))
	for i := range 40 {
		n := 1 + r.IntN(60)
		used := 1 + r.IntN(n)
		g := mustGraph(t, n, randomMultigraph(r, n, used, r.IntN(400)))
		cases = append(cases, tc{name: fmt.Sprintf("random%d", i), g: g})
	}
	cases = append(cases,
		tc{"empty", mustGraph(t, 0, nil)},
		tc{"isolated", mustGraph(t, 7, nil)},
		tc{"single-vertex-loops", mustGraph(t, 1, []Edge{{0, 0}, {0, 0}, {0, 0}})},
	)
	und, err := NewUndirected(50, randomMultigraph(r, 50, 40, 300))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"undirected", und})
	// A hub star: the hub's degree sum sits at the top of the bucket range
	// and every star edge ties on it, so (src, dst, index) decide.
	var star []Edge
	for i := range 500 {
		leaf := VertexID(1 + i%200)
		if i%2 == 0 {
			star = append(star, Edge{Src: 0, Dst: leaf})
		} else {
			star = append(star, Edge{Src: leaf, Dst: 0})
		}
	}
	star = append(star, Edge{0, 0}, Edge{201, 202}, Edge{202, 201})
	cases = append(cases, tc{"hub-star", mustGraph(t, 210, star)})

	for _, c := range cases {
		got := c.g.SortedBySumDegree()
		want := referenceSortedBySumDegree(c.g)
		if !slices.Equal(got, want) {
			t.Errorf("%s (|V|=%d |E|=%d): order differs from the stable sort\n got %v\nwant %v",
				c.name, c.g.NumVertices(), c.g.NumEdges(), got, want)
		}
	}
}

func TestCSRRoundTrip(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 3}}
	g := mustGraph(t, 4, edges)
	out := BuildCSR(g)
	in := BuildReverseCSR(g)
	if out.NumEdges() != len(edges) || in.NumEdges() != len(edges) {
		t.Fatalf("CSR edge counts out=%d in=%d", out.NumEdges(), in.NumEdges())
	}
	if got := out.Neighbors(0); len(got) != 2 {
		t.Fatalf("out-neighbors of 0: %v", got)
	}
	if got := in.Neighbors(2); len(got) != 2 {
		t.Fatalf("in-neighbors of 2: %v", got)
	}
	// EdgeIndices must map back to the original edge list.
	for v := 0; v < 4; v++ {
		nbrs := out.Neighbors(VertexID(v))
		idxs := out.EdgeIndices(VertexID(v))
		for j := range nbrs {
			e := g.Edge(int(idxs[j]))
			if e.Src != VertexID(v) || e.Dst != nbrs[j] {
				t.Fatalf("edge index mismatch at v=%d slot %d: %v", v, j, e)
			}
		}
	}
	if out.NumVertices() != 4 {
		t.Errorf("CSR NumVertices = %d", out.NumVertices())
	}
	if out.Degree(0) != 2 {
		t.Errorf("CSR Degree(0) = %d", out.Degree(0))
	}
}

func TestCSREmptyVertex(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1}})
	csr := BuildCSR(g)
	if len(csr.Neighbors(2)) != 0 {
		t.Fatalf("isolated vertex has neighbors")
	}
}
