// Package core implements EBV, the paper's primary contribution: the
// Efficient and Balanced Vertex-cut partition algorithm (Algorithm 1).
//
// EBV assigns each edge (u,v) to the subgraph i minimizing the evaluation
// function of §IV-C:
//
//	Eva(u,v)(i) = I(u ∉ keep[i]) + I(v ∉ keep[i])
//	            + α·ecount[i]/(|E|/p) + β·vcount[i]/(|V|/p)
//
// The two indicator terms steer the replication factor; the two ratio terms
// bound the edge and vertex imbalance factors (Theorems 1 and 2). Edges are
// processed in ascending order of end-vertex degree sum (the §IV-C sorting
// preprocessing) unless configured otherwise.
package core

import (
	"context"
	"fmt"
	"math"

	"ebv/internal/graph"
	"ebv/internal/partition"
)

// Order selects the edge processing order for EBV.
type Order int

// Edge processing orders.
const (
	// OrderSorted processes edges ascending by end-vertex degree sum —
	// the paper's default ("EBV-sort").
	OrderSorted Order = iota + 1
	// OrderInput processes edges in input order ("EBV-unsort").
	OrderInput
	// OrderSortedDesc processes edges descending by degree sum; exists
	// only for the ablation bench, the paper predicts it is harmful.
	OrderSortedDesc
)

// String returns the order's name as used in §V-D.
func (o Order) String() string {
	switch o {
	case OrderSorted:
		return "sort"
	case OrderInput:
		return "unsort"
	case OrderSortedDesc:
		return "sort-desc"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// EBV is the paper's partitioner. The zero value is NOT ready; use New.
type EBV struct {
	alpha float64
	beta  float64
	order Order

	// growthEvery, when > 0, invokes growth every growthEvery assigned
	// edges with the running replication factor (drives Figure 5).
	growthEvery int
	growth      func(edgesProcessed int, replicationFactor float64)
}

var _ partition.ContextPartitioner = (*EBV)(nil)

// Option configures an EBV instance.
type Option func(*EBV)

// WithAlpha sets the edge-balance weight α (default 1, the paper's setting).
func WithAlpha(alpha float64) Option {
	return func(e *EBV) { e.alpha = alpha }
}

// WithBeta sets the vertex-balance weight β (default 1).
func WithBeta(beta float64) Option {
	return func(e *EBV) { e.beta = beta }
}

// WithOrder sets the edge processing order (default OrderSorted).
func WithOrder(o Order) Option {
	return func(e *EBV) { e.order = o }
}

// WithGrowthTracking registers fn to be called every sampleEvery assigned
// edges with the running replication factor, reproducing the Figure 5
// growth curves. sampleEvery must be positive.
func WithGrowthTracking(sampleEvery int, fn func(edgesProcessed int, replicationFactor float64)) Option {
	return func(e *EBV) {
		e.growthEvery = sampleEvery
		e.growth = fn
	}
}

// New returns an EBV partitioner with the paper's defaults (α = β = 1,
// sorted preprocessing) modified by opts.
func New(opts ...Option) *EBV {
	e := &EBV{alpha: 1, beta: 1, order: OrderSorted}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Name implements partition.Partitioner. It distinguishes the sort variants
// the way §V-D does.
func (e *EBV) Name() string {
	if e.order == OrderSorted {
		return "EBV"
	}
	return "EBV-" + e.order.String()
}

// Alpha returns the configured edge-balance weight.
func (e *EBV) Alpha() float64 { return e.alpha }

// Beta returns the configured vertex-balance weight.
func (e *EBV) Beta() float64 { return e.beta }

// Partition implements partition.Partitioner with Algorithm 1.
func (e *EBV) Partition(g *graph.Graph, k int) (*partition.Assignment, error) {
	return e.PartitionCtx(context.Background(), g, k)
}

// PartitionCtx implements partition.ContextPartitioner: the assignment loop
// polls ctx every partition.CancelCheckInterval edges and returns ctx.Err()
// promptly on cancellation.
func (e *EBV) PartitionCtx(ctx context.Context, g *graph.Graph, k int) (*partition.Assignment, error) {
	if k < 1 {
		return nil, partition.ErrBadPartCount
	}
	if e.alpha < 0 || e.beta < 0 {
		return nil, fmt.Errorf("core: negative hyperparameters alpha=%g beta=%g", e.alpha, e.beta)
	}
	numE, numV := g.NumEdges(), g.NumVertices()
	a := partition.NewAssignment(k, numE)
	if numE == 0 {
		return a, nil
	}

	// Gather the endpoints in processing order, so the greedy loop reads
	// them sequentially instead of chasing one random edge index per step.
	// srcAt borrows a.Parts, which is filled only after the loop. Once
	// edge idx is placed, dstAt[idx] holds its subgraph instead; the
	// final scatter moves the subgraphs to their edge indices.
	order := e.edgeOrder(g)
	edges := g.Edges()
	srcAt, dstAt := a.Parts, make([]int32, numE)
	for idx, edgeID := range order {
		ed := edges[edgeID]
		srcAt[idx], dstAt[idx] = int32(ed.Src), int32(ed.Dst)
	}

	// keep holds Algorithm 1's per-subgraph vertex sets vertex-major: bit
	// i of keep[v*words+i/64] says whether v ∈ keep[i], so one edge reads
	// its endpoints' membership in every subgraph from 2·words adjacent
	// words. ecount/vcount are the running counters.
	words := (k + 63) / 64
	keep := make([]uint64, numV*words)
	ecount := make([]int, k)
	vcount := make([]int, k)

	// base[i] caches subgraph i's two balance terms of Eva; only the
	// subgraph that wins an edge needs it recomputed. Computing the zero
	// counts through the same expression keeps even a NaN or +Inf weight
	// scoring exactly as before.
	eNorm := e.alpha / (float64(numE) / float64(k))
	vNorm := e.beta / (float64(numV) / float64(k))
	balance := func(i int) float64 {
		return float64(ecount[i])*eNorm + float64(vcount[i])*vNorm
	}
	base := make([]float64, k)
	for i := range base {
		base[i] = balance(i)
	}

	totalReplicas := 0
	for idx := range order {
		if idx%partition.CancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		u, v := int(uint32(srcAt[idx])), int(uint32(dstAt[idx]))
		keepU := keep[u*words : (u+1)*words]
		keepV := keep[v*words : (v+1)*words]

		best := argmin(base, keepU, keepV)

		dstAt[idx] = int32(best)
		ecount[best]++
		// Set both endpoints' bits and count the ones that were missing;
		// for a self-loop keepU and keepV are the same row, so v sees u's
		// update and the vertex is counted once.
		w, b := best/64, uint(best%64)
		newU := int(^keepU[w] >> b & 1)
		keepU[w] |= 1 << b
		newV := int(^keepV[w] >> b & 1)
		keepV[w] |= 1 << b
		vcount[best] += newU + newV
		totalReplicas += newU + newV
		base[best] = balance(best)

		if e.growth != nil && e.growthEvery > 0 && (idx+1)%e.growthEvery == 0 {
			e.growth(idx+1, float64(totalReplicas)/float64(numV))
		}
	}
	// The loop already reported the final sample when |E| is a multiple of
	// growthEvery.
	if e.growth != nil && e.growthEvery > 0 && numE%e.growthEvery != 0 {
		e.growth(numE, float64(totalReplicas)/float64(numV))
	}
	for idx, edgeID := range order {
		a.Parts[edgeID] = dstAt[idx]
	}
	return a, nil
}

// argmin returns the subgraph i minimizing Eva(u,v)(i) = base[i] +
// I(u ∉ keep[i]) + I(v ∉ keep[i]), given u's and v's membership words.
//
// The indicator terms are added as 0.0 or 1.0 from the inverted membership
// bits; adding 0.0 is exact, so every score equals the one Algorithm 1
// computes with branches, bit for bit. Scores are never negative (α, β ≥ 0,
// and adding +0.0 turns -0 into +0), so their bit patterns order exactly as
// the floats do, with NaN above +Inf and never chosen; comparing them as
// integers lets the argmin compile to conditional moves instead of a
// data-dependent branch.
func argmin(base []float64, keepU, keepV []uint64) int {
	best := 0
	bestBits := math.Float64bits(math.Inf(1))
	for w, inU := range keepU {
		missU, missV := ^inU, ^keepV[w]
		for b, score := range base[w*64 : min(len(base), (w+1)*64)] {
			score += float64(int64(missU & 1))
			score += float64(int64(missV & 1))
			missU >>= 1
			missV >>= 1
			// Strict < keeps the argmin deterministic: ties go to the
			// lowest subgraph id, matching a left-to-right arg min.
			if bits := math.Float64bits(score); bits < bestBits {
				bestBits = bits
				best = w*64 + b
			}
		}
	}
	return best
}

// edgeOrder materializes the configured processing order.
func (e *EBV) edgeOrder(g *graph.Graph) []int32 {
	switch e.order {
	case OrderInput:
		order := make([]int32, g.NumEdges())
		for i := range order {
			order[i] = int32(i)
		}
		return order
	case OrderSortedDesc:
		asc := g.SortedBySumDegree()
		for i, j := 0, len(asc)-1; i < j; i, j = i+1, j-1 {
			asc[i], asc[j] = asc[j], asc[i]
		}
		return asc
	default:
		return g.SortedBySumDegree()
	}
}

// EdgeImbalanceBound returns the Theorem 1 worst-case bound on the edge
// imbalance factor for a graph with numEdges edges split into k subgraphs:
//
//	1 + (p-1)/|E| · (1 + ⌊2|E|/(αp) + β|E|/α⌋)
func (e *EBV) EdgeImbalanceBound(numEdges, k int) float64 {
	if numEdges == 0 || k < 2 || e.alpha <= 0 {
		return math.Inf(1)
	}
	inner := math.Floor(2*float64(numEdges)/(e.alpha*float64(k)) +
		e.beta/e.alpha*float64(numEdges))
	return 1 + float64(k-1)/float64(numEdges)*(1+inner)
}

// VertexImbalanceBound returns the Theorem 2 worst-case bound on the vertex
// imbalance factor, given Σ|Vj| (the total replica count of the result):
//
//	1 + (p-1)/Σ|Vj| · (1 + ⌊2|V|/(βp) + α|V|/β⌋)
func (e *EBV) VertexImbalanceBound(numVertices, totalReplicas, k int) float64 {
	if totalReplicas == 0 || k < 2 || e.beta <= 0 {
		return math.Inf(1)
	}
	inner := math.Floor(2*float64(numVertices)/(e.beta*float64(k)) +
		e.alpha/e.beta*float64(numVertices))
	return 1 + float64(k-1)/float64(totalReplicas)*(1+inner)
}
