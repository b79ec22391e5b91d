package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ebv/internal/graph"
)

// listenN binds n loopback listeners and returns them with their
// addresses.
func listenN(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return lns, addrs
}

// tcpWorkers wires len(addrs) per-process endpoints concurrently, worker w
// on lns[w], each serving one width-1 job.
func tcpWorkers(t *testing.T, lns []net.Listener, addrs []string) []Transport {
	t.Helper()
	trs := make([]Transport, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for w := range trs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			trs[w], errs[w] = NewTCPWorker(t.Context(), w, addrs, lns[w], 10*time.Second, 1)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	return trs
}

// holdingProxy accepts one connection on ln and relays it to target: the
// 4-byte hello and everything target sends pass straight through, but the
// rest of what the dialer sends is held until the dialer closes and
// release is closed, then delivered followed by a clean close.
func holdingProxy(ln net.Listener, target string, release <-chan struct{}) error {
	defer ln.Close()
	in, err := ln.Accept()
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := net.Dial("tcp", target)
	if err != nil {
		return err
	}
	defer out.Close()
	go func() { _, _ = io.Copy(in, out) }()
	if _, err := io.CopyN(out, in, 4); err != nil {
		return err
	}
	held, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	<-release
	_, err = out.Write(held)
	return err
}

// TestJobMuxCleanCloseKeepsBufferedFrames is the clean-close race of
// per-process endpoints. Workers 0 and 2 finish the final exchange and
// close while worker 1 still waits for worker 0's frame, which a proxy
// holds back. Worker 2's frame and its clean EOF both reach worker 1
// first; that EOF must not fail worker 1, whose exchange completes once
// the held frame arrives.
func TestJobMuxCleanCloseKeepsBufferedFrames(t *testing.T) {
	lns, addrs := listenN(t, 3)
	proxy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs[1] = proxy.Addr().String() // only worker 0 dials worker 1
	release := make(chan struct{})
	proxyErr := make(chan error, 1)
	go func() { proxyErr <- holdingProxy(proxy, lns[1].Addr().String(), release) }()
	trs := tcpWorkers(t, lns, addrs)

	// Worker src sends worker dst the row (src, 10·src + dst).
	out := func(src int) []*MessageBatch {
		batches := make([]*MessageBatch, 3)
		for dst := range batches {
			batches[dst] = jobBatch(1, graph.VertexID(src), float64(10*src+dst))
		}
		return batches
	}
	var finished sync.WaitGroup
	for _, w := range []int{0, 2} {
		finished.Add(1)
		go func(w int) {
			defer finished.Done()
			res, err := trs[w].Exchange(w, 0, out(w), false)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
			for _, b := range res.In {
				RecycleBatch(b)
			}
			_ = trs[w].Close()
		}(w)
	}
	type result struct {
		res ExchangeResult
		err error
	}
	slow := make(chan result, 1)
	go func() {
		res, err := trs[1].Exchange(1, 0, out(1), false)
		slow <- result{res, err}
	}()
	finished.Wait()
	n1 := trs[1].(*tcpWorker).node
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		n1.mu.Lock()
		seen := n1.gone != nil || n1.failed != nil // worker 2's EOF reached worker 1's demux
		n1.mu.Unlock()
		if seen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker 1 never observed worker 2's close")
		}
	}
	select {
	case r := <-slow:
		t.Fatalf("worker 1 returned before worker 0's frame arrived: %v", r.err)
	default:
	}
	close(release)
	select {
	case r := <-slow:
		if r.err != nil {
			t.Fatalf("worker 1's final exchange: %v", r.err)
		}
		for src, b := range r.res.In {
			if b.Len() != 1 || b.IDs[0] != graph.VertexID(src) || b.Scalar(0) != float64(10*src+1) {
				t.Fatalf("worker 1 from %d: ids %v vals %v", src, b.IDs, b.Vals)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker 1's final exchange never completed")
	}
	if err := <-proxyErr; err != nil {
		t.Fatalf("proxy: %v", err)
	}
	_ = trs[1].Close()
}

// TestJobMuxPeerClosedBeforeFrameFailsTyped: a peer that closes before
// sending a frame the job still needs fails the exchange promptly with
// *PeerClosedError, and the endpoint refuses new jobs.
func TestJobMuxPeerClosedBeforeFrameFailsTyped(t *testing.T) {
	lns, addrs := listenN(t, 2)
	trs := tcpWorkers(t, lns, addrs)
	defer trs[1].Close()
	_ = trs[0].Close() // worker 0 leaves without sending step 0's frame
	done := make(chan error, 1)
	go func() {
		_, err := trs[1].Exchange(1, 0, nil, true)
		done <- err
	}()
	select {
	case err := <-done:
		var closed *PeerClosedError
		if !errors.As(err, &closed) || closed.Worker != 0 {
			t.Fatalf("err = %v, want *PeerClosedError for worker 0", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("exchange hung on a peer that had closed")
	}
	var closed *PeerClosedError
	if _, err := trs[1].(*tcpWorker).node.openJob(9, 1); !errors.As(err, &closed) {
		t.Fatalf("openJob after a peer left: err = %v, want *PeerClosedError", err)
	}
}

// TestTCPWorkerFrameBitFlipRejected: the process boundary is checksummed.
// A fake peer wires into a per-process endpoint with the hello handshake
// and sends one v4 frame with a single bit flipped; the endpoint's
// Exchange fails with the CRC mismatch instead of delivering garbage.
func TestTCPWorkerFrameBitFlipRejected(t *testing.T) {
	lns, addrs := listenN(t, 2)
	_ = lns[0].Close() // worker 0 is the fake peer below
	type built struct {
		tr  Transport
		err error
	}
	ready := make(chan built, 1)
	go func() {
		tr, err := NewTCPWorker(t.Context(), 1, addrs, lns[1], 10*time.Second, 1)
		ready <- built{tr, err}
	}()
	fake, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	if _, err := fake.Write(binary.LittleEndian.AppendUint32(nil, 0)); err != nil { // hello: worker 0
		t.Fatal(err)
	}
	b := <-ready
	if b.err != nil {
		t.Fatal(b.err)
	}
	defer b.tr.Close()

	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if _, err := writeJobFrameV4(bw, workerJob, 0, true, jobBatch(1, 3, 2.5), 0, new(v4Scratch)); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[len(frame)-1] ^= 0x10 // one bit of the value column
	if _, err := fake.Write(frame); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.tr.Exchange(1, 0, nil, true)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
			t.Fatalf("err = %v, want a CRC mismatch", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("corrupted frame was swallowed; Exchange still blocked")
	}
}
