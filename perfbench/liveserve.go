package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"time"

	"ebv"
	"ebv/internal/serve"
)

// heldOutRows is about how many directed edge rows the live workload holds
// out of the road graph and streams back in.
const heldOutRows = 200

// roadSeed fixes the road lattice; the run's seed picks the held-out batch
// and the queried vertices. CC's supersteps and wire rows on a road
// lattice depend on where its drops fall (27 to 30 steps and ±15% rows
// between lattice seeds), which would make the spread over seeds mostly
// the spread of the inputs.
const roadSeed = 1

// liveRoadServe puts writes beside reads on the serving chain: an
// in-process ebv-serve over the road analogue minus a held-out edge batch,
// driven by one keep-alive HTTP client. One job is the cycle insert the
// batch → CC → delete it → CC, so the graph is back in its set-up state
// after every job and the work is stationary over any run length. live and
// serve do the writes; the engine runs CC in its barrier-bound regime of
// many supersteps and low replication. core and the TCP codec do nothing.
func liveRoadServe(b *bench) error {
	road, err := ebv.TableIGraph(ebv.USARoad, 1, roadSeed)
	if err != nil {
		return err
	}
	base, held, isolated, err := holdOut(road, b.opt.seed)
	if err != nil {
		return err
	}
	n := base.NumVertices()
	full, err := ebv.NewGraph(n, append(slices.Clone(base.Edges()), held...))
	if err != nil {
		return err
	}
	b.vertices, b.edges = n, base.NumEdges()
	id := b.tr.begin("apps.oracle", 0, -1)
	wantA, wantB := ebv.SequentialCC(base), ebv.SequentialCC(full)
	b.tr.end(id)

	// The CC query asks for the isolated vertices (uncovered before the
	// insert, connected after it) plus a fixed random sample.
	rng := rand.New(rand.NewPCG(b.opt.seed, 2))
	sample := slices.Clone(isolated)
	for range 40 {
		sample = append(sample, int64(rng.IntN(n)))
	}
	slices.Sort(sample)
	sample = slices.Compact(sample)
	ins := make([]ebv.Mutation, len(held))
	del := make([]ebv.Mutation, len(held))
	for i, e := range held {
		ins[i] = ebv.Mutation{Op: ebv.OpInsert, Src: e.Src, Dst: e.Dst}
		del[i] = ebv.Mutation{Op: ebv.OpDelete, Src: e.Src, Dst: e.Dst}
	}
	insBody, err := ebv.EncodeMutations(ins)
	if err != nil {
		return err
	}
	delBody, err := ebv.EncodeMutations(del)
	if err != nil {
		return err
	}
	jobBody, err := json.Marshal(serve.JobRequest{Graph: "road", App: "cc", Vertices: sample})
	if err != nil {
		return err
	}
	checkCC := func(body []byte, state string, want []float64, g *ebv.Graph, took time.Duration) error {
		jr, err := checkJob(body, sample, want, g)
		if err != nil {
			return fmt.Errorf("CC after %s: %w", state, err)
		}
		b.guard("steps/CC/"+state, float64(jr.Steps))
		b.guard("wire_rows/CC/"+state, float64(jr.Messages.Wire))
		if b.tr != nil {
			b.sample("serve.queue_ms", jr.QueueTimeMS)
			b.sample("serve.run_ms", jr.RunTimeMS)
			b.sample("serve.overhead_ms", ms(took)-jr.TotalTimeMS)
		}
		return nil
	}

	// Set-up: start the server and warm its session with a first query.
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for rep := range b.wl.setups {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		op := -1 - rep
		root := b.tr.begin("setup", 0, op)
		t0 := time.Now()
		srv, err = startServer(b.ctx, base)
		if err != nil {
			return err
		}
		first, err := srv.post("/v1/jobs", "application/json", jobBody)
		d := time.Since(t0)
		b.tr.end(root)
		if err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
		b.setups = append(b.setups, d)
		if err := checkCC(first, "deleted", wantA, base, d); err != nil {
			return err
		}
		rf, err := srv.replicationFactor()
		if err != nil {
			return err
		}
		b.guard("replication_factor", rf)
	}

	type reply struct {
		body []byte
		took time.Duration
	}
	var replies [4]reply
	requests := []struct {
		path, ctype string
		body        []byte
	}{
		{"/v1/graphs/road/mutations", "application/x-ebv-mutations", insBody},
		{"/v1/jobs", "application/json", jobBody},
		{"/v1/graphs/road/mutations", "application/x-ebv-mutations", delBody},
		{"/v1/jobs", "application/json", jobBody},
	}
	var writes, reads []time.Duration
	checkWrite := func(body []byte, inserted, deleted int, rfName string) error {
		var mr serve.MutationResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			return fmt.Errorf("mutation response: %w", err)
		}
		if mr.Inserted != inserted || mr.Deleted != deleted {
			return fmt.Errorf("mutation applied %d inserts and %d deletes, sent %d and %d",
				mr.Inserted, mr.Deleted, inserted, deleted)
		}
		b.guard(rfName, mr.RF)
		if b.tr != nil {
			b.sample("live.patch_ms", ms(mr.PatchTime))
			b.sample("live.parts_rebuilt_per_batch", float64(mr.PartsRebuilt))
			b.sample("live.parts_reused_per_batch", float64(mr.PartsReused))
		}
		return nil
	}
	j := job{
		run: func(ctx context.Context, op int, tr *tracer) error {
			root := tr.begin("cycle", 0, op)
			defer tr.end(root)
			for i, rq := range requests {
				id := tr.begin("serve.request", root, op)
				t0 := time.Now()
				body, err := srv.post(rq.path, rq.ctype, rq.body)
				replies[i] = reply{body, time.Since(t0)}
				tr.end(id)
				if err != nil {
					return err
				}
			}
			return nil
		},
		check: func(op int) error {
			// The graph must be back in its set-up state after the
			// delete: its replication factor is guarded against the
			// value the server reported at set-up.
			if err := checkWrite(replies[0].body, len(held), 0, "rf_after_insert"); err != nil {
				return err
			}
			if err := checkCC(replies[1].body, "inserted", wantB, full, replies[1].took); err != nil {
				return err
			}
			if err := checkWrite(replies[2].body, 0, len(held), "replication_factor"); err != nil {
				return err
			}
			if err := checkCC(replies[3].body, "deleted", wantA, base, replies[3].took); err != nil {
				return err
			}
			b.guard("wire_rows_per_job", b.fixed["wire_rows/CC/inserted"]+b.fixed["wire_rows/CC/deleted"])
			writes = append(writes, replies[0].took, replies[2].took)
			reads = append(reads, replies[1].took, replies[3].took)
			return nil
		},
	}
	if err := b.loop(j); err != nil {
		return err
	}
	if b.tr != nil {
		b.sample("serve.write_p50_ms", percentile(writes, 0.5))
		b.sample("serve.read_p50_ms", percentile(reads, 0.5))
	} else {
		b.notes = append(b.notes, fmt.Sprintf("requests: write p50 %.3f ms, read p50 %.3f ms over %d cycles",
			percentile(writes, 0.5), percentile(reads, 0.5), len(writes)/2))
	}
	b.e2e["replication_factor"] = b.fixed["replication_factor"]
	b.e2e["wire_rows_per_job"] = b.fixed["wire_rows_per_job"]

	// The mirror session replays the cycle in-process: it exposes the
	// partition balance and per-worker counters HTTP does not carry, and
	// its counts are guarded against the server's.
	mirror, err := b.openMirror(base)
	if err != nil {
		return err
	}
	defer mirror.Close()
	m := mirror.Prepared().Metrics
	b.guard("replication_factor", m.ReplicationFactor)
	b.e2e["edge_imbalance"] = m.EdgeImbalance
	b.e2e["vertex_imbalance"] = m.VertexImbalance
	var subsB []*ebv.Subgraph
	cycles := 1
	if b.tr != nil {
		cycles = 5
	}
	for c := range cycles {
		op := 1<<20 + c
		root := b.tr.begin("mirror", 0, op)
		ap, err := b.mirrorApply(mirror, root, op, ins)
		if err != nil {
			return fmt.Errorf("mirror insert: %w", err)
		}
		b.guard("rf_after_insert", ap.RF)
		if subsB == nil && b.tr != nil {
			gB, aB, _ := mirror.LiveSnapshot()
			if subsB, err = ebv.BuildSubgraphs(gB, aB); err != nil {
				return err
			}
		}
		rB, err := b.mirrorCC(mirror, root, op, "inserted", wantB, full)
		if err != nil {
			return err
		}
		ap, err = b.mirrorApply(mirror, root, op, del)
		if err != nil {
			return fmt.Errorf("mirror delete: %w", err)
		}
		b.guard("replication_factor", ap.RF)
		rA, err := b.mirrorCC(mirror, root, op, "deleted", wantA, base)
		if err != nil {
			return err
		}
		b.tr.end(root)
		b.guard("message_imbalance", messageImbalance(rA, rB))
		if b.tr != nil {
			b.engineSamples(rA, rB)
		}
	}
	b.e2e["message_imbalance"] = b.fixed["message_imbalance"]
	if b.tr == nil {
		return nil
	}
	return b.wireProbe(b.ctx, probeJobs, []probeJob{
		{subs: subsB, prog: &ebv.CC{}, check: func(r *ebv.RunResult) error { return checkValues("CC", r, wantB, full) }},
		{subs: mirror.Prepared().Subgraphs, prog: &ebv.CC{}, check: func(r *ebv.RunResult) error { return checkValues("CC", r, wantA, base) }},
	})
}

// openMirror opens an in-process session over g with the options the
// server's graph spec uses, so it holds the same partition.
func (b *bench) openMirror(g *ebv.Graph) (*ebv.Session, error) {
	opts := []ebv.PipelineOption{ebv.FromGraph(g), ebv.UsePartitioner(ebv.NewEBV()), ebv.Subgraphs(k)}
	root := b.tr.begin("setup.mirror", 0, -100)
	defer b.tr.end(root)
	if b.tr != nil {
		b.tr.enter(root, -100)
		defer b.tr.leave()
		opts = append(opts, ebv.OnProgress(b.tr.progress()))
	}
	return ebv.NewPipeline(opts...).Open(b.ctx)
}

// mirrorApply applies one mutation batch to the mirror session.
func (b *bench) mirrorApply(s *ebv.Session, parent, op int, muts []ebv.Mutation) (*ebv.ApplyResult, error) {
	id := b.tr.begin("live.apply", parent, op)
	t0 := time.Now()
	ap, err := s.Apply(b.ctx, muts)
	d := time.Since(t0)
	b.tr.end(id)
	if b.tr != nil {
		b.sample("live.apply_ms", ms(d))
	}
	return ap, err
}

// mirrorCC runs CC on the mirror session and checks it against the oracle
// and the server's counts for the same state.
func (b *bench) mirrorCC(s *ebv.Session, parent, op int, state string, want []float64, g *ebv.Graph) (*ebv.RunResult, error) {
	id := b.tr.begin("ebv.facade", parent, op)
	b.tr.enter(id, op)
	jr, err := s.Run(b.ctx, &ebv.CC{})
	b.tr.leave()
	b.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("mirror CC: %w", err)
	}
	if err := checkValues("mirror CC after "+state, jr.BSP, want, g); err != nil {
		return nil, err
	}
	b.guard("steps/CC/"+state, float64(jr.Steps))
	b.guard("wire_rows/CC/"+state, float64(jr.Counts.Wire))
	return jr.BSP, nil
}

// holdOut removes every edge row touching randomly chosen vertices until
// about heldOutRows rows are out, and returns the remaining graph, the
// removed rows and the chosen vertices, which the remaining graph leaves
// isolated.
func holdOut(g *ebv.Graph, seed uint64) (*ebv.Graph, []ebv.Edge, []int64, error) {
	rng := rand.New(rand.NewPCG(seed, 1))
	n := g.NumVertices()
	chosen := make([]bool, n)
	var isolated []int64
	for rows := 0; rows < heldOutRows; {
		v := rng.IntN(n)
		if chosen[v] || g.Degree(ebv.VertexID(v)) == 0 {
			continue
		}
		chosen[v] = true
		isolated = append(isolated, int64(v))
		rows += g.Degree(ebv.VertexID(v))
	}
	var keep, held []ebv.Edge
	for _, e := range g.Edges() {
		if chosen[e.Src] || chosen[e.Dst] {
			held = append(held, e)
		} else {
			keep = append(keep, e)
		}
	}
	base, err := ebv.NewGraph(n, keep)
	return base, held, isolated, err
}

// checkJob decodes a CC job response and checks every requested vertex
// against the oracle for the graph state the job ran on.
func checkJob(body []byte, sample []int64, want []float64, g *ebv.Graph) (*serve.JobResponse, error) {
	var jr serve.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		return nil, fmt.Errorf("job response: %w", err)
	}
	if len(jr.Values) != len(sample) {
		return nil, fmt.Errorf("%d values for %d requested vertices", len(jr.Values), len(sample))
	}
	for i, vv := range jr.Values {
		v := sample[i]
		deg := g.Degree(ebv.VertexID(v))
		if vv.Vertex != v || vv.Covered != (deg > 0) {
			return nil, fmt.Errorf("vertex %d: got vertex %d covered=%v, oracle degree %d", v, vv.Vertex, vv.Covered, deg)
		}
		if vv.Covered && (len(vv.Value) != 1 || math.Float64bits(vv.Value[0]) != math.Float64bits(want[v])) {
			return nil, fmt.Errorf("vertex %d = %v, oracle %v", v, vv.Value, want[v])
		}
	}
	return &jr, nil
}

// server is an in-process ebv-serve on a loopback listener plus the one
// keep-alive client that drives it.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	url    string
	client *http.Client
}

func startServer(ctx context.Context, g *ebv.Graph) (*server, error) {
	srv, err := serve.New(ctx, serve.Config{
		Graphs: []serve.GraphSpec{{
			Name:      "road",
			Generate:  func() (*ebv.Graph, error) { return g, nil },
			Subgraphs: k,
		}},
		MaxGraphs: 1,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(ctx)
		return nil, err
	}
	s := &server{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// post sends one request and returns the body of a 200 response.
func (s *server) post(path, ctype string, body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.url+path, ctype, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// replicationFactor reads the served graph's prepared replication factor.
func (s *server) replicationFactor() (float64, error) {
	resp, err := s.client.Get(s.url + "/v1/graphs")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var listing struct {
		Graphs []struct {
			State             string  `json:"state"`
			ReplicationFactor float64 `json:"replication_factor"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return 0, err
	}
	if len(listing.Graphs) != 1 || listing.Graphs[0].State != "ready" {
		return 0, fmt.Errorf("graph listing %+v, want one ready graph", listing.Graphs)
	}
	return listing.Graphs[0].ReplicationFactor, nil
}

// stop shuts the HTTP server and the service down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if e := <-s.done; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	err = errors.Join(err, s.srv.Shutdown(ctx))
	s.client.CloseIdleConnections()
	return err
}
