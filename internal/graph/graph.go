// Package graph provides the graph substrate shared by every partitioner and
// processing engine in this repository: an edge-list representation with
// cached degrees, CSR adjacency views, text and binary interchange formats,
// and statistics (including the power-law exponent η used throughout the
// paper's evaluation).
//
// Conventions follow §III-C of the paper: a graph is directed; an undirected
// input is represented by storing each undirected edge as two directed edges
// with opposite directions.
package graph

import (
	"errors"
	"fmt"
)

// VertexID identifies a vertex. Vertex IDs are dense: a graph with n
// vertices uses IDs [0, n).
type VertexID = uint32

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src VertexID
	Dst VertexID
}

// ErrVertexOutOfRange reports an edge endpoint outside [0, NumVertices).
var ErrVertexOutOfRange = errors.New("graph: vertex id out of range")

// Graph is an immutable directed graph stored as an edge list with cached
// per-vertex degrees. Construct one with New or a loader; do not mutate the
// slices returned by accessor methods.
type Graph struct {
	numVertices int
	edges       []Edge
	outDeg      []int32
	inDeg       []int32
	undirected  bool // true if edges came in mirrored +/- pairs
}

// New builds a Graph over numVertices vertices from the given edge list.
// The edge slice is retained (not copied); callers must not mutate it after
// the call. It returns ErrVertexOutOfRange if any endpoint is out of range.
func New(numVertices int, edges []Edge) (*Graph, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	g := &Graph{
		numVertices: numVertices,
		edges:       edges,
		outDeg:      make([]int32, numVertices),
		inDeg:       make([]int32, numVertices),
	}
	for _, e := range edges {
		if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("%w: edge (%d,%d) with %d vertices",
				ErrVertexOutOfRange, e.Src, e.Dst, numVertices)
		}
		g.outDeg[e.Src]++
		g.inDeg[e.Dst]++
	}
	return g, nil
}

// NewUndirected builds a directed Graph from an undirected edge list by
// mirroring every edge, per §III-C. Self-loops are stored once.
func NewUndirected(numVertices int, edges []Edge) (*Graph, error) {
	mirrored := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		mirrored = append(mirrored, e)
		if e.Src != e.Dst {
			mirrored = append(mirrored, Edge{Src: e.Dst, Dst: e.Src})
		}
	}
	g, err := New(numVertices, mirrored)
	if err != nil {
		return nil, err
	}
	g.undirected = true
	return g, nil
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns |E| (directed edge count; an undirected input counts 2 per
// input edge).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns the backing edge list. Callers must treat it as read-only.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int { return int(g.outDeg[v]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int { return int(g.inDeg[v]) }

// Degree returns the total degree (in + out) of v. For graphs built with
// NewUndirected this equals twice the undirected degree for non-loop edges.
func (g *Graph) Degree(v VertexID) int { return int(g.outDeg[v] + g.inDeg[v]) }

// Undirected reports whether the graph was built from an undirected input.
func (g *Graph) Undirected() bool { return g.undirected }

// AverageDegree returns |E| / |V| as reported in Table I of the paper.
func (g *Graph) AverageDegree() float64 {
	if g.numVertices == 0 {
		return 0
	}
	// Table I reports undirected edge counts for undirected graphs; keep
	// the directed convention here and let callers divide by two when they
	// need the undirected figure.
	return float64(len(g.edges)) / float64(g.numVertices)
}

// MaxDegree returns the maximum total degree across vertices.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.numVertices; v++ {
		if d := int(g.outDeg[v] + g.inDeg[v]); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// SortedBySumDegree returns a new slice of edge indices ordered ascending by
// the sum of end-vertex total degrees, breaking ties by (src, dst) and then
// by input index, so the order is fully deterministic. This is the paper's
// §IV-C sorting preprocessing; it is exposed here because multiple
// partitioners and the Figure 5 harness reuse it.
//
// It is an LSD radix sort: three stable counting passes over edge indices,
// keyed by dst, then src, then degree sum (at most 2·MaxDegree). Starting
// from the identity permutation, each stable pass keeps the order of the
// previous ones among equal keys, which yields the total order above in
// O(|E| + |V| + MaxDegree) time with one scratch index slice.
func (g *Graph) SortedBySumDegree() []int32 {
	n := len(g.edges)
	deg := make([]int32, g.numVertices)
	maxDeg := int32(0)
	for v := range deg {
		deg[v] = g.outDeg[v] + g.inDeg[v]
		maxDeg = max(maxDeg, deg[v])
	}
	byDst := func(i int32) int { return int(g.edges[i].Dst) }
	bySrc := func(i int32) int { return int(g.edges[i].Src) }
	bySum := func(i int32) int {
		e := g.edges[i]
		return int(deg[e.Src]) + int(deg[e.Dst])
	}

	// Three stable passes from the identity permutation ping-pong between
	// the two slices and leave the result in b.
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(i)
	}
	b := make([]int32, n)
	counts := make([]int32, max(g.numVertices, 2*int(maxDeg)+1)+1)
	countingPass(b, a, byDst, counts[:g.numVertices+1])
	countingPass(a, b, bySrc, counts[:g.numVertices+1])
	countingPass(b, a, bySum, counts[:2*int(maxDeg)+2])
	return b
}

// countingPass stably sorts src, a permutation of the edge indices, by key
// into dst. counts must have one more slot than the largest key; it is
// overwritten. The histogram does not depend on order, so it reads the
// edges sequentially rather than through src.
func countingPass(dst, src []int32, key func(int32) int, counts []int32) {
	clear(counts)
	for i := range src {
		counts[key(int32(i))+1]++
	}
	for b := 1; b < len(counts); b++ {
		counts[b] += counts[b-1]
	}
	for _, i := range src {
		k := key(i)
		dst[counts[k]] = i
		counts[k]++
	}
}
