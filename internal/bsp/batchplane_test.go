package bsp_test

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// tcpTransports builds a loopback mesh sized to k and returns one
// width-wide job on it as the Transport slice a Config wants.
func tcpTransports(t *testing.T, k, width int) []transport.Transport {
	t.Helper()
	mesh, err := transport.NewTCPMeshDeployment(t.Context(), k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mesh.Close() })
	trs, err := mesh.OpenJob(1, width)
	if err != nil {
		t.Fatal(err)
	}
	return trs
}

// TestMemTCPEquivalenceMultiWidth is the transport-equivalence invariant
// on the batch path: the same program over the same subgraphs must produce
// a byte-identical ValueMatrix on the in-memory router and the TCP mesh,
// for scalar and vector widths alike.
func TestMemTCPEquivalenceMultiWidth(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	const k = 3
	subs := buildSubs(t, g, core.New(), k)
	for _, width := range []int{1, 3, 8} {
		prog := &apps.Aggregate{Layers: 2}
		memRes, err := bsp.Run(subs, prog, bsp.Config{ValueWidth: width, VerifyReplicaAgreement: true})
		if err != nil {
			t.Fatalf("width %d mem: %v", width, err)
		}
		tcpRes, err := bsp.Run(subs, prog, bsp.Config{
			ValueWidth:             width,
			Transports:             tcpTransports(t, k, width),
			VerifyReplicaAgreement: true,
		})
		if err != nil {
			t.Fatalf("width %d tcp: %v", width, err)
		}
		if !memRes.Values.EqualValues(tcpRes.Values) {
			t.Fatalf("width %d: mem and TCP value matrices differ", width)
		}
		if memRes.TotalMessages() != tcpRes.TotalMessages() {
			t.Fatalf("width %d: message counts differ: %d vs %d",
				width, memRes.TotalMessages(), tcpRes.TotalMessages())
		}
		// And both match the sequential oracle per vertex, per column.
		want := apps.SequentialAggregate(g, 2, width, nil)
		for v := 0; v < g.NumVertices(); v++ {
			row, ok := tcpRes.Row(graph.VertexID(v))
			if !ok {
				continue
			}
			for j, got := range row {
				if math.Abs(got-want.At(v, j)) > 1e-9 {
					t.Fatalf("width %d: h(%d)[%d] = %g, want %g",
						width, v, j, got, want.At(v, j))
				}
			}
		}
	}
}

// TestFaultMidExchangeBatchPath injects a fault into a vector-width run
// several supersteps in — feature batches are in flight on every link —
// and requires a clean error, no deadlock and no partial result.
func TestFaultMidExchangeBatchPath(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	mem, err := transport.NewMem(4)
	if err != nil {
		t.Fatal(err)
	}
	inj := &transport.FaultInjector{
		Inner:       mem,
		FailWorker:  1,
		FailStep:    2,
		CloseOnFail: true,
	}
	trs := make([]transport.Transport, 4)
	for w := range trs {
		trs[w] = inj
	}
	done := make(chan error, 1)
	go func() {
		res, err := bsp.Run(subs, &apps.Aggregate{Layers: 5},
			bsp.Config{ValueWidth: 4, Transports: trs})
		if res != nil {
			err = errors.New("got a partial result despite the injected fault")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run succeeded despite injected fault")
		}
		if !errors.Is(err, transport.ErrInjected) && !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("err = %v, want ErrInjected or ErrClosed in chain", err)
		}
		if !inj.Fired() {
			t.Fatal("fault never fired")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked after mid-exchange fault on the batch path")
	}
}

// retainer is a deliberately buggy program: it holds on to the inbox batch
// across supersteps, violating the "in is only valid during the call"
// contract. Under the poison debug mode the engine must make that bug
// fail deterministically (the retained values read back NaN).
type retainer struct {
	sawPoison chan bool
}

func (*retainer) Name() string { return "retainer" }

func (r *retainer) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return &retainWorker{sub: sub, env: env, sawPoison: r.sawPoison}
}

type retainWorker struct {
	sub       *bsp.Subgraph
	env       bsp.Env
	retained  *transport.MessageBatch
	sawPoison chan bool
}

func (w *retainWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	switch step {
	case 0:
		// Send ourselves a message so step 1's inbox is non-empty.
		out := make([]*transport.MessageBatch, w.sub.NumWorkers)
		b := w.env.NewBatch()
		b.AppendScalar(w.sub.GlobalIDs[0], 42)
		out[w.sub.Part] = b
		return out, true
	case 1:
		w.retained = in // the bug: keeping the batch past the call
		return nil, true
	default:
		poisoned := w.retained.Len() == 0 // recycled batches are reset
		if !poisoned && len(w.retained.Vals) > 0 {
			poisoned = math.IsNaN(w.retained.Vals[0])
		}
		if w.retained.Len() > 0 && w.retained.IDs[0] == transport.PoisonID {
			poisoned = true
		}
		w.sawPoison <- poisoned
		return nil, false
	}
}

func (w *retainWorker) Values() *graph.ValueMatrix {
	return w.env.NewValues(w.sub.NumLocalVertices())
}

// TestPoisonModeCatchesRetainedInbox enables the poison debug mode and
// checks that a program retaining its inbox observes scribbled (or reset)
// contents instead of silently-stale values.
func TestPoisonModeCatchesRetainedInbox(t *testing.T) {
	was := transport.PoisonRecycledEnabled()
	transport.SetPoisonRecycled(true)
	defer transport.SetPoisonRecycled(was)

	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 1)
	prog := &retainer{sawPoison: make(chan bool, 1)}
	if _, err := bsp.Run(subs, prog, bsp.Config{}); err != nil {
		t.Fatal(err)
	}
	select {
	case poisoned := <-prog.sawPoison:
		if !poisoned {
			t.Fatal("retained inbox survived recycling un-poisoned: retention bugs would corrupt silently")
		}
	default:
		t.Fatal("retainer never reported")
	}
}

// badWidthProg emits an outbox batch of the wrong width from worker 0 —
// the misbehaving-program shape that must surface as an error from Run,
// not a deadlock of the peers blocked in the barrier.
type badWidthProg struct{}

func (*badWidthProg) Name() string { return "bad-width" }

func (*badWidthProg) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return badWidthWorker{sub: sub, env: env}
}

type badWidthWorker struct {
	sub *bsp.Subgraph
	env bsp.Env
}

func (w badWidthWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	out := make([]*transport.MessageBatch, w.sub.NumWorkers)
	if w.sub.Part == 0 {
		b := transport.GetBatch(3) // wrong: the run is width 1
		b.AppendScalar(w.sub.GlobalIDs[0], 1)
		out[(w.sub.Part+1)%w.sub.NumWorkers] = b
	}
	return out, true
}

func (w badWidthWorker) Values() *graph.ValueMatrix {
	return w.env.NewValues(w.sub.NumLocalVertices())
}

// TestBadBatchWidthErrorsInsteadOfDeadlocking: a worker rejected for a
// malformed outbox must release its peers from the collective exchange
// and Run must report the width mismatch.
func TestBadBatchWidthErrorsInsteadOfDeadlocking(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	done := make(chan error, 1)
	go func() {
		_, err := bsp.Run(subs, &badWidthProg{}, bsp.Config{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "width") {
			t.Fatalf("err = %v, want a width-mismatch diagnostic", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run deadlocked on a malformed outbox batch")
	}
}

// TestRunRejectsOverwideValueWidth: widths above the transport cap fail
// identically on every transport, at configuration time.
func TestRunRejectsOverwideValueWidth(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 2)
	_, err := bsp.Run(subs, &apps.CC{}, bsp.Config{ValueWidth: transport.MaxValueWidth + 1})
	if err == nil || !strings.Contains(err.Error(), "transport cap") {
		t.Fatalf("err = %v, want the transport-cap diagnostic", err)
	}
}
