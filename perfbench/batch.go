package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"ebv"
)

// batchTwitter is the paper's offline chain, one job per pass: parse the
// Twitter analogue's text edge list, partition it with EBV, compute the
// partition metrics, build the subgraphs and run CC on the in-memory
// transport. core does most of the work; the TCP codec, live and serve do
// nothing.
func batchTwitter(b *bench) error {
	path := filepath.Join(b.opt.work, fmt.Sprintf("twitter-%d.txt", b.opt.seed))
	var g *ebv.Graph
	for rep := range b.wl.setups {
		op := -1 - rep
		root := b.tr.begin("setup", 0, op)
		t0 := time.Now()
		id := b.tr.begin("gen.table1", root, op)
		gg, err := ebv.TableIGraph(ebv.Twitter, 0.5, b.opt.seed)
		b.tr.end(id)
		if err != nil {
			return err
		}
		id = b.tr.begin("graph.write", root, op)
		sum, err := writeEdgeList(path, gg)
		b.tr.end(id)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(t0))
		b.tr.end(root)
		b.guard("input_crc32", float64(sum))
		g = gg
	}
	b.vertices, b.edges = g.NumVertices(), g.NumEdges()
	id := b.tr.begin("apps.oracle", 0, -1)
	want := ebv.SequentialCC(g)
	b.tr.end(id)

	var res *ebv.PipelineResult
	var subs []*ebv.Subgraph
	j := job{
		run: func(ctx context.Context, op int, tr *tracer) error {
			opts := []ebv.PipelineOption{
				ebv.FromEdgeList(path), ebv.UsePartitioner(ebv.NewEBV()), ebv.Subgraphs(k),
			}
			root := tr.begin("ebv.facade", 0, op)
			if tr != nil {
				tr.enter(root, op)
				defer tr.leave()
				opts = append(opts, ebv.OnProgress(tr.progress()))
			}
			var err error
			res, err = ebv.NewPipeline(opts...).Run(ctx, &ebv.CC{})
			tr.end(root)
			return err
		},
		check: func(op int) error {
			defer func() { res = nil }()
			if res.Graph.NumEdges() != g.NumEdges() {
				return fmt.Errorf("loaded %d edges, wrote %d", res.Graph.NumEdges(), g.NumEdges())
			}
			if err := checkValues("CC", res.BSP, want, g); err != nil {
				return err
			}
			b.guard("replication_factor", res.Metrics.ReplicationFactor)
			b.guard("edge_imbalance", res.Metrics.EdgeImbalance)
			b.guard("vertex_imbalance", res.Metrics.VertexImbalance)
			b.guard("steps/CC", float64(res.BSP.Steps))
			b.guard("wire_rows_per_job", wireRows(res.BSP))
			b.guard("message_imbalance", messageImbalance(res.BSP))
			if b.tr != nil {
				b.engineSamples(res.BSP)
			}
			subs = res.Subgraphs
			return nil
		},
	}
	if err := b.loop(j); err != nil {
		return err
	}
	for _, name := range []string{"replication_factor", "edge_imbalance", "vertex_imbalance", "wire_rows_per_job", "message_imbalance"} {
		b.e2e[name] = b.fixed[name]
	}
	if b.tr == nil {
		return nil
	}
	return b.wireProbe(b.ctx, probeJobs, []probeJob{{subs: subs, prog: &ebv.CC{}, check: func(r *ebv.RunResult) error {
		return checkValues("CC", r, want, g)
	}}})
}

// writeEdgeList writes g to path as a text edge list and returns the CRC
// of the bytes written.
func writeEdgeList(path string, g *ebv.Graph) (uint32, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	h := crc32.NewIEEE()
	if err := ebv.WriteEdgeList(io.MultiWriter(f, h), g); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}
