package graph_test

import (
	"testing"

	"ebv/internal/gen"
	"ebv/internal/graph"
)

// BenchmarkSortedBySumDegree times the §IV-C degree-sum sort on the
// Twitter analogue the repository benchmark partitions (10k V / 352k E,
// η = 1.87) and on the graph of BenchmarkEBVPartition (20k V / 200k E,
// η = 2.1). As there, MB/s reads as Medges/s.
func BenchmarkSortedBySumDegree(b *testing.B) {
	for _, bc := range []struct {
		name string
		make func() (*graph.Graph, error)
	}{
		{"twitter", func() (*graph.Graph, error) { return gen.TableIGraph(gen.Twitter, 0.5, 1) }},
		{"ablation", func() (*graph.Graph, error) {
			return gen.PowerLaw(gen.PowerLawConfig{
				NumVertices: 20000, NumEdges: 200000, Eta: 2.1, Directed: true, Seed: 9,
			})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g, err := bc.make()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(g.NumEdges()))
			b.ReportAllocs()
			for b.Loop() {
				g.SortedBySumDegree()
			}
		})
	}
}
