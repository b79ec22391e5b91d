package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/graph"
)

// buildBinaries compiles the named commands (./cmd/<name>) into dir and
// returns their paths in order.
func buildBinaries(t *testing.T, dir string, names ...string) []string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	bins := make([]string, len(names))
	for i, name := range names {
		bins[i] = filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bins[i], "./cmd/"+name)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
	}
	return bins
}

// startCoordinator launches the coordinator and scrapes the bound
// control-plane address from its first stdout line.
func startCoordinator(t *testing.T, bin string, args ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "COORDINATOR "); ok {
				addrCh <- rest
				break
			}
		}
		// Drain the rest so the coordinator never blocks on a full pipe.
		for sc.Scan() {
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			_ = cmd.Process.Kill()
			t.Fatalf("coordinator printed no COORDINATOR line; stderr:\n%s", stderr.String())
		}
		return cmd, addr, &stderr
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("timed out waiting for the coordinator address; stderr:\n%s", stderr.String())
		return nil, "", nil
	}
}

func startWorker(t *testing.T, bin, coordAddr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-coordinator", coordAddr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestClusterProcessSmoke is the whole story at the process level: a
// coordinator and three ebv-worker processes run PageRank; one worker is
// SIGKILLed mid-run and a replacement process joins; the output file must
// be byte-identical to an undisturbed deployment's. (PageRank, because
// its superstep count is fixed by -iters regardless of partition shape,
// guarantees the kill lands mid-run; CC over EBV's contiguous partitions
// converges in a handful of supersteps.)
func TestClusterProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short")
	}
	dir := t.TempDir()
	bins := buildBinaries(t, dir, "ebv-coordinator", "ebv-worker")
	coordBin, workerBin := bins[0], bins[1]

	graphPath := filepath.Join(dir, "path.txt")
	var sb strings.Builder
	for i := 0; i < 1200; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	if err := os.WriteFile(graphPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(label string, kill bool) []byte {
		t.Helper()
		ckptDir := filepath.Join(dir, "ckpt-"+label)
		outPath := filepath.Join(dir, "out-"+label+".txt")
		coord, addr, stderr := startCoordinator(t, coordBin,
			"-in", graphPath, "-algo", "EBV", "-parts", "3",
			"-app", "PR", "-iters", "300", "-combine", "auto",
			"-checkpoint-dir", ckptDir, "-checkpoint-every", "5",
			"-out", outPath, "-v")
		t.Logf("%s: coordinator at %s", label, addr)

		workers := make([]*exec.Cmd, 3)
		for i := range workers {
			workers[i] = startWorker(t, workerBin, addr)
		}
		if kill {
			// Wait for a complete checkpoint epoch, then SIGKILL one worker
			// and bring up a replacement process.
			deadline := time.Now().Add(60 * time.Second)
			for {
				if _, ok, err := SelectRestoreEpoch(ckptDir, 1, 3); err == nil && ok {
					break
				}
				if time.Now().After(deadline) {
					_ = coord.Process.Kill()
					t.Fatalf("%s: no complete checkpoint epoch appeared", label)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if err := workers[1].Process.Kill(); err != nil { // SIGKILL, no goodbye
				t.Fatal(err)
			}
			workers = append(workers, startWorker(t, workerBin, addr))
		}

		if err := coord.Wait(); err != nil {
			t.Fatalf("%s: coordinator: %v\nstderr:\n%s", label, err, stderr.String())
		}
		for _, w := range workers {
			_ = w.Wait() // exit codes vary by mode of death; the output file is the oracle
		}
		if kill && !strings.Contains(stderr.String(), "restoring from checkpoint epoch") {
			t.Fatalf("%s: coordinator never restored from a checkpoint; stderr:\n%s", label, stderr.String())
		}
		out, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatalf("%s: empty output", label)
		}
		return out
	}

	clean := run("clean", false)
	faulty := run("faulty", true)
	if !bytes.Equal(clean, faulty) {
		t.Fatal("output after kill -9 + recovery differs from the undisturbed run")
	}
	t.Logf("clean and post-failover outputs are byte-identical (%d bytes)", len(clean))
}

// TestStandaloneWorkerProcessSmoke is the hand-wired multi-process story:
// ebv-partition writes shard files, then three ebv-worker processes wired
// only by a -peers list run CC and PageRank over per-process TCP
// endpoints, each exiting as soon as it finishes. The merged CC output
// must equal the sequential oracle, and every worker's PageRank output
// must be byte-identical to the same shards run in-process over the Mem
// transport.
func TestStandaloneWorkerProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short")
	}
	dir := t.TempDir()
	bins := buildBinaries(t, dir, "ebv-partition", "ebv-worker")
	partitionBin, workerBin := bins[0], bins[1]

	graphPath := filepath.Join(dir, "g.txt")
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, testPowerlaw(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(graphPath, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()), false) // as ebv-partition loads it
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	shardDir := filepath.Join(dir, "shards")
	if out, err := exec.Command(partitionBin, "-in", graphPath, "-algo", "EBV", "-parts", "3",
		"-subgraph-dir", shardDir).CombinedOutput(); err != nil {
		t.Fatalf("ebv-partition: %v\n%s", err, out)
	}
	subs := make([]*bsp.Subgraph, k)
	for w := range subs {
		f, err := os.Open(filepath.Join(shardDir, fmt.Sprintf("subgraph-%d.bin", w)))
		if err != nil {
			t.Fatal(err)
		}
		subs[w], err = bsp.ReadSubgraph(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	// run starts one ebv-worker per shard and returns each one's output.
	run := func(app string) [][]byte {
		t.Helper()
		addrs := make([]string, k)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = ln.Addr().String()
			_ = ln.Close()
		}
		cmds := make([]*exec.Cmd, k)
		defer func() { // a failed run leaves no worker behind
			for _, cmd := range cmds {
				if cmd != nil && cmd.Process != nil {
					_ = cmd.Process.Kill()
				}
			}
		}()
		stderr := make([]bytes.Buffer, k)
		for w := range cmds {
			cmds[w] = exec.Command(workerBin, "-subgraph", filepath.Join(shardDir, fmt.Sprintf("subgraph-%d.bin", w)),
				"-worker", fmt.Sprint(w), "-peers", strings.Join(addrs, ","), "-app", app,
				"-dial-timeout", "20s", "-out", filepath.Join(dir, fmt.Sprintf("%s-%d.txt", app, w)))
			cmds[w].Stderr = &stderr[w]
			if err := cmds[w].Start(); err != nil {
				t.Fatal(err)
			}
		}
		outs := make([][]byte, k)
		for w, cmd := range cmds {
			timer := time.AfterFunc(60*time.Second, func() { _ = cmd.Process.Kill() })
			err := cmd.Wait()
			timer.Stop()
			if err != nil {
				t.Fatalf("%s worker %d: %v\nstderr:\n%s", app, w, err, stderr[w].String())
			}
			t.Logf("%s worker %d: %s", app, w, strings.TrimSpace(stderr[w].String()))
			if outs[w], err = os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-%d.txt", app, w))); err != nil {
				t.Fatal(err)
			}
		}
		return outs
	}

	// CC: merge the workers' outputs (replicas must agree) and check the
	// merge against the oracle, vertex by vertex.
	want := apps.SequentialCC(g)
	merged := make(map[int]string)
	for w, out := range run("CC") {
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			gid, val, ok := strings.Cut(line, " ")
			v, err := strconv.Atoi(gid)
			if !ok || err != nil {
				t.Fatalf("CC worker %d: malformed line %q", w, line)
			}
			if prev, seen := merged[v]; seen && prev != val {
				t.Fatalf("CC vertex %d: replicas disagree (%s vs %s)", v, prev, val)
			}
			merged[v] = val
		}
	}
	covered := 0
	for v, label := range want {
		if g.Degree(graph.VertexID(v)) == 0 {
			continue
		}
		covered++
		if got := merged[v]; got != strconv.FormatFloat(label, 'g', -1, 64) {
			t.Fatalf("CC vertex %d: got %q, want %g", v, got, label)
		}
	}
	if len(merged) != covered {
		t.Fatalf("CC output covers %d vertices, want %d", len(merged), covered)
	}

	// PageRank: each worker's file must be byte-identical to the lines an
	// in-process Mem run over the same shards yields for its vertices.
	mem, err := bsp.Run(subs, &apps.PageRank{Iterations: 10}, bsp.Config{AutoCombine: true, VerifyReplicaAgreement: true})
	if err != nil {
		t.Fatal(err)
	}
	for w, out := range run("PR") {
		ids := slices.Clone(subs[w].GlobalIDs)
		slices.Sort(ids)
		var wantOut bytes.Buffer
		for _, gid := range ids {
			v, _ := mem.Value(gid)
			fmt.Fprintf(&wantOut, "%d %s\n", gid, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if !bytes.Equal(out, wantOut.Bytes()) {
			t.Fatalf("PR worker %d: output differs from the in-process Mem run", w)
		}
	}
	t.Logf("CC matches the oracle on %d vertices; PR byte-identical to Mem on all %d workers", covered, k)
}
