package bsp_test

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/transport"
)

func TestSubgraphSerializationRoundTrip(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 3)
	for _, sub := range subs {
		var buf bytes.Buffer
		if err := bsp.WriteSubgraph(&buf, sub); err != nil {
			t.Fatal(err)
		}
		got, err := bsp.ReadSubgraph(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Part != sub.Part || got.NumWorkers != sub.NumWorkers {
			t.Fatalf("header mismatch: %d/%d", got.Part, got.NumWorkers)
		}
		if got.NumLocalVertices() != sub.NumLocalVertices() ||
			got.NumLocalEdges() != sub.NumLocalEdges() {
			t.Fatalf("size mismatch")
		}
		for local, gid := range sub.GlobalIDs {
			l2, ok := got.LocalOf(gid)
			if !ok || int(l2) != local {
				t.Fatalf("local index not rebuilt for vertex %d", gid)
			}
			if len(got.ReplicaPeers[local]) != len(sub.ReplicaPeers[local]) {
				t.Fatalf("replica peers lost for vertex %d", gid)
			}
		}
		// CSR views rebuilt and usable.
		if got.Out.NumEdges() != sub.Out.NumEdges() {
			t.Fatalf("out CSR mismatch")
		}
	}
}

func TestReadSubgraphRejectsGarbage(t *testing.T) {
	if _, err := bsp.ReadSubgraph(bytes.NewReader([]byte("not a subgraph"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// freePorts grabs n distinct localhost ports by listening and releasing.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		_ = ln.Close()
	}
	return addrs
}

// TestMultiProcessStyleRun exercises the full ebv-worker path in-process:
// subgraphs serialized and reloaded, one address-based NewTCPWorker
// endpoint per worker, each driven independently by RunWorkerCtx and
// closed as soon as it finishes — exactly what separate OS processes
// would do.
func TestMultiProcessStyleRun(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	const k = 3
	subs := buildSubs(t, g, core.New(), k)

	// Serialize + reload (the shard files of ebv-partition -subgraph-dir).
	reloaded := make([]*bsp.Subgraph, k)
	for i, sub := range subs {
		var buf bytes.Buffer
		if err := bsp.WriteSubgraph(&buf, sub); err != nil {
			t.Fatal(err)
		}
		var err error
		reloaded[i], err = bsp.ReadSubgraph(&buf)
		if err != nil {
			t.Fatal(err)
		}
	}

	addrs := freePorts(t, k)
	results := make([]*bsp.WorkerResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr, err := transport.NewTCPWorker(t.Context(), w, addrs, nil, 15*time.Second, 1)
			if err != nil {
				errs[w] = fmt.Errorf("transport: %w", err)
				return
			}
			defer tr.Close()
			results[w], errs[w] = bsp.RunWorkerCtx(t.Context(), reloaded[w], &apps.CC{}, tr, bsp.Config{})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	want := apps.SequentialCC(g)
	for w := 0; w < k; w++ {
		for local, gid := range reloaded[w].GlobalIDs {
			if got := results[w].Values.Scalar(local); got != want[gid] {
				t.Fatalf("worker %d: CC(%d) = %g, want %g", w, gid, got, want[gid])
			}
		}
		if results[w].Steps == 0 {
			t.Fatalf("worker %d ran 0 steps", w)
		}
	}
}

func TestRunWorkerValidation(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 2)
	mem, err := transport.NewMem(3) // wrong worker count
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, err := bsp.RunWorkerCtx(t.Context(), subs[0], &apps.CC{}, mem, bsp.Config{}); err == nil {
		t.Fatal("mismatched transport accepted")
	}
	if _, err := bsp.RunWorkerCtx(t.Context(), nil, &apps.CC{}, mem, bsp.Config{}); err == nil {
		t.Fatal("nil subgraph accepted")
	}
}

func TestNewTCPWorkerValidation(t *testing.T) {
	if _, err := transport.NewTCPWorker(t.Context(), 5, []string{"a", "b"}, nil, time.Second, 1); err == nil {
		t.Fatal("out-of-range worker accepted")
	}
	if _, err := transport.NewTCPWorker(t.Context(), 0, []string{"unused"}, nil, time.Second, 0); err == nil {
		t.Fatal("width 0 accepted")
	}
	// Single worker needs no peers at all.
	tr, err := transport.NewTCPWorker(t.Context(), 0, []string{"unused"}, nil, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.NumWorkers() != 1 {
		t.Fatal("wrong worker count")
	}
}

func TestNewTCPWorkerTimesOutWithoutPeers(t *testing.T) {
	addrs := freePorts(t, 2)
	start := time.Now()
	_, err := transport.NewTCPWorker(t.Context(), 1, addrs, nil, 500*time.Millisecond, 1)
	if err == nil {
		t.Fatal("lonely worker connected to nobody")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("timeout took far too long")
	}
}
