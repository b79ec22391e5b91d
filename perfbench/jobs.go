package main

import (
	"context"
	"fmt"
	"time"

	"ebv"
)

// jobsTwitterTCP prepares the Twitter analogue once, on the loopback TCP
// mesh with the shipped defaults (wire v4, combining on), and serves a
// fixed cycle of CC, PageRank(10) and SSSP from the highest-degree vertex
// as one job. Timing the whole cycle keeps the latency distribution
// unimodal. The engine and the transport (codec, mux, receiver merge) do
// most of the work; core runs only in set-up.
func jobsTwitterTCP(b *bench) error {
	g, err := ebv.TableIGraph(ebv.Twitter, 1, b.opt.seed)
	if err != nil {
		return err
	}
	b.vertices, b.edges = g.NumVertices(), g.NumEdges()
	hub := ebv.VertexID(0)
	for v := range g.NumVertices() {
		if g.Degree(ebv.VertexID(v)) > g.Degree(hub) {
			hub = ebv.VertexID(v)
		}
	}

	var s *ebv.Session
	defer func() {
		if s != nil {
			s.Close()
		}
	}()
	for rep := range b.wl.setups {
		if s != nil {
			s.Close()
		}
		op := -1 - rep
		opts := []ebv.PipelineOption{
			ebv.FromGraph(g), ebv.UsePartitioner(ebv.NewEBV()), ebv.Subgraphs(k), ebv.UseTCPLoopback(),
		}
		root := b.tr.begin("setup", 0, op)
		if b.tr != nil {
			b.tr.enter(root, op)
			opts = append(opts, ebv.OnProgress(b.tr.progress()))
		}
		t0 := time.Now()
		s, err = ebv.NewPipeline(opts...).Open(b.ctx)
		d := time.Since(t0)
		b.tr.leave()
		b.tr.end(root)
		if err != nil {
			s = nil
			return err
		}
		b.setups = append(b.setups, d)
		m := s.Prepared().Metrics
		b.guard("replication_factor", m.ReplicationFactor)
		b.guard("edge_imbalance", m.EdgeImbalance)
		b.guard("vertex_imbalance", m.VertexImbalance)
	}
	subs := s.Prepared().Subgraphs

	id := b.tr.begin("apps.oracle", 0, -1)
	wantCC := ebv.SequentialCC(g)
	wantSSSP := ebv.SequentialSSSP(g, hub)
	if b.tr != nil {
		// PageRank is verified against the in-memory engine below, since
		// Mem/TCP byte identity is the product contract; the sequential
		// PageRank runs here only as the single-thread cost baseline.
		ebv.SequentialPageRank(g, 10, 0.85)
	}
	b.tr.end(id)
	mem, err := ebv.NewBSPDeployment(subs, nil)
	if err != nil {
		return err
	}
	ref, err := mem.Run(b.ctx, &ebv.PageRank{Iterations: 10}, ebv.NewRunConfig(ebv.AutoCombine(true)))
	mem.Close()
	if err != nil {
		return fmt.Errorf("in-memory PageRank reference: %w", err)
	}
	wantPR := column0(ref, g.NumVertices())

	progs := []ebv.Program{&ebv.CC{}, &ebv.PageRank{Iterations: 10}, &ebv.SSSP{Source: hub}}
	checks := []func(*ebv.RunResult) error{
		func(r *ebv.RunResult) error { return checkValues("CC", r, wantCC, g) },
		func(r *ebv.RunResult) error { return checkValues("PR", r, wantPR, g) },
		func(r *ebv.RunResult) error { return checkValues("SSSP", r, wantSSSP, g) },
	}
	out := make([]*ebv.RunResult, len(progs))
	j := job{
		run: func(ctx context.Context, op int, tr *tracer) error {
			root := tr.begin("cycle", 0, op)
			defer tr.end(root)
			for i, p := range progs {
				id := tr.begin("ebv.facade", root, op)
				tr.enter(id, op)
				jr, err := s.Run(ctx, p)
				tr.leave()
				tr.end(id)
				if err != nil {
					return err
				}
				out[i] = jr.BSP
			}
			return nil
		},
		check: func(op int) error {
			for i, r := range out {
				if err := checks[i](r); err != nil {
					return err
				}
				b.guard("steps/"+progs[i].Name(), float64(r.Steps))
			}
			b.guard("wire_rows_per_job", wireRows(out...))
			b.guard("message_imbalance", messageImbalance(out...))
			if b.tr != nil {
				b.engineSamples(out...)
			}
			clear(out)
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
	cycle := make([]probeJob, len(progs))
	for i := range progs {
		cycle[i] = probeJob{subs: subs, prog: progs[i], check: checks[i]}
	}
	return b.wireProbe(b.ctx, probeJobs, cycle)
}
