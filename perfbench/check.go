package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"ebv"
)

// checkValues compares column 0 of a run's values with an oracle, bit for
// bit. A vertex must be covered exactly when it has an edge in g, the
// graph the oracle ran on.
func checkValues(app string, r *ebv.RunResult, want []float64, g *ebv.Graph) error {
	if r == nil {
		return fmt.Errorf("%s: no result", app)
	}
	for v := range want {
		row, ok := r.Row(ebv.VertexID(v))
		if deg := g.Degree(ebv.VertexID(v)); ok != (deg > 0) {
			return fmt.Errorf("%s: vertex %d covered=%v with %d edges", app, v, ok, deg)
		}
		if ok && math.Float64bits(row[0]) != math.Float64bits(want[v]) {
			return fmt.Errorf("%s: vertex %d = %v, oracle %v", app, v, row[0], want[v])
		}
	}
	return nil
}

// column0 copies the first value column of a run, for use as an oracle.
func column0(r *ebv.RunResult, n int) []float64 {
	out := make([]float64, n)
	for v := range out {
		if row, ok := r.Row(ebv.VertexID(v)); ok {
			out[v] = row[0]
		}
	}
	return out
}

// messageImbalance is max/mean over workers of the rows each sent in the
// given runs together (Table V's balance metric for a multi-program job).
func messageImbalance(rs ...*ebv.RunResult) float64 {
	sent := make([]float64, k)
	for _, r := range rs {
		for i := range r.Workers {
			sent[i] += float64(r.Workers[i].TotalSent())
		}
	}
	var total, top float64
	for _, s := range sent {
		total += s
		top = max(top, s)
	}
	if total == 0 {
		return 1
	}
	return top / (total / float64(len(sent)))
}

// wireRows sums the rows that crossed the exchange in the given runs.
func wireRows(rs ...*ebv.RunResult) float64 {
	var n int64
	for _, r := range rs {
		n += r.MessageCounts().Wire
	}
	return float64(n)
}

// engineSamples records one job's engine breakdown from the results its
// programs returned: the paper's comp/comm/ΔC, mean barrier wait, the
// wall time no worker timer covers, and the combiner's fold shares.
func (b *bench) engineSamples(rs ...*ebv.RunResult) {
	var steps int
	var wall, comp, comm, sync, deltaC, unattr time.Duration
	var c ebv.MessageCounts
	for _, r := range rs {
		steps += r.Steps
		wall += r.WallTime
		comp += r.AvgComp()
		comm += r.AvgComm()
		deltaC += r.DeltaC()
		var slowest, syncSum time.Duration
		for i := range r.Workers {
			w := &r.Workers[i]
			slowest = max(slowest, w.TotalComp()+w.TotalComm()+w.TotalSync())
			syncSum += w.TotalSync()
		}
		if len(r.Workers) > 0 {
			sync += syncSum / time.Duration(len(r.Workers))
		}
		unattr += r.WallTime - slowest
		rc := r.MessageCounts()
		c.Emitted += rc.Emitted
		c.Wire += rc.Wire
		c.Delivered += rc.Delivered
	}
	b.sample("bsp.steps_per_job", float64(steps))
	b.sample("bsp.run_wall_ms", ms(wall))
	b.sample("bsp.comp_ms", ms(comp))
	b.sample("bsp.comm_ms", ms(comm))
	b.sample("bsp.sync_ms", ms(sync))
	b.sample("bsp.delta_c_ms", ms(deltaC))
	b.sample("bsp.unattributed_ms", ms(unattr))
	if c.Emitted > 0 {
		b.sample("transport.sender_fold_share", float64(c.Emitted-c.Wire)/float64(c.Emitted))
	}
	if c.Wire > 0 {
		b.sample("transport.receiver_fold_share", float64(c.Wire-c.Delivered)/float64(c.Wire))
	}
}

// probeJobs is how many jobs a wire probe measures.
const probeJobs = 9

// probeJob is one program run on one subgraph set in a wire probe.
type probeJob struct {
	subs  []*ebv.Subgraph
	prog  ebv.Program
	check func(*ebv.RunResult) error
}

// wireProbe measures what the TCP data plane costs a job, on a mesh built
// with the public constructors Session.Open uses (wire v4, combining on):
// the mesh set-up time, and the wall time and frame bytes of one job (the
// given programs, in order) over reps jobs after one warm job.
func (b *bench) wireProbe(ctx context.Context, reps int, cycle []probeJob) error {
	id := b.tr.begin("transport.mesh_setup", 0, 1<<30)
	mesh, err := ebv.NewTCPMeshDeployment(ctx, k)
	b.tr.end(id)
	if err != nil {
		return fmt.Errorf("wire probe mesh: %w", err)
	}
	dep, err := ebv.NewBSPDeployment(cycle[0].subs, mesh)
	if err != nil {
		mesh.Close()
		return fmt.Errorf("wire probe deployment: %w", err)
	}
	defer dep.Close()
	cfg := ebv.NewRunConfig(ebv.AutoCombine(true))
	var before int64
	for rep := 0; rep <= reps; rep++ {
		if rep == 1 {
			before = mesh.WireBytes()
		}
		var took time.Duration
		for _, j := range cycle {
			if dep.Subgraphs()[0] != j.subs[0] {
				if _, err := dep.Swap(j.subs); err != nil {
					return fmt.Errorf("wire probe swap: %w", err)
				}
			}
			t0 := time.Now()
			r, err := dep.Run(ctx, j.prog, cfg)
			took += time.Since(t0)
			if err != nil {
				return fmt.Errorf("wire probe %s: %w", j.prog.Name(), err)
			}
			if err := j.check(r); err != nil {
				return fmt.Errorf("wire probe: %w", err)
			}
		}
		if rep > 0 {
			b.sample("transport.tcp_job_ms", ms(took))
		}
	}
	b.sample("transport.wire_bytes_per_job", float64(mesh.WireBytes()-before)/float64(reps))
	return nil
}
