package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// defaultDialTimeout bounds a worker's mesh wiring when the caller names
// no budget.
const defaultDialTimeout = 30 * time.Second

// wireWorker connects one worker of a k-worker TCP mesh (k = len(addrs))
// to every peer and returns conns[peer] (nil at index == worker). It
// accepts the lower ids on ln — listening on addrs[worker] when ln is
// nil — and dials the higher ids with DialBackoff, so workers may start
// in any order; every connection opens with a 4-byte hello naming the
// dialer, which is how the acceptor slots it. The wiring is bounded by
// dialTimeout and aborts on ctx. It takes ownership of ln and closes it
// before returning (the listener's only purpose is wiring); on error
// every connection it opened is closed.
//
// This is the one wiring path: NewTCPMeshDeployment runs it once per
// worker over loopback listeners, NewTCPWorker once per process.
func wireWorker(ctx context.Context, worker int, addrs []string, ln net.Listener, dialTimeout time.Duration) ([]net.Conn, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k := len(addrs)
	if worker < 0 || worker >= k {
		if ln != nil {
			_ = ln.Close()
		}
		return nil, fmt.Errorf("transport: worker %d out of range [0,%d)", worker, k)
	}
	if k == 1 { // a lone worker has no peers
		if ln != nil {
			_ = ln.Close()
		}
		return make([]net.Conn, 1), nil
	}
	if dialTimeout <= 0 {
		dialTimeout = defaultDialTimeout
	}
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", addrs[worker]); err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", addrs[worker], err)
		}
	}
	defer ln.Close()
	// Cancellation aborts a blocked Accept by closing the listener; the
	// dials run under wctx, which also ends when wiring returns, so a
	// failed wiring leaves no dial retrying until the deadline.
	stopWatch := context.AfterFunc(ctx, func() { _ = ln.Close() })
	defer stopWatch()
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Dial every higher-id peer concurrently and accept from lower ids; a
	// single loop collects both sides. abort tells straggling producers —
	// a dial that succeeded after the wiring already failed — to close
	// their connection instead of leaking it into an unread channel.
	type wired struct {
		peer int
		conn net.Conn
		err  error
	}
	results := make(chan wired)
	abort := make(chan struct{})
	defer close(abort)
	send := func(r wired) {
		select {
		case results <- r:
		case <-abort:
			if r.conn != nil {
				_ = r.conn.Close()
			}
		}
	}
	deadline := time.Now().Add(dialTimeout)
	for peer := worker + 1; peer < k; peer++ {
		go func(peer int) {
			conn, err := DialBackoff(wctx, addrs[peer], deadline)
			if err != nil {
				send(wired{err: fmt.Errorf("dial peer %d (%s): %w", peer, addrs[peer], err)})
				return
			}
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(worker))
			if _, err := conn.Write(hello[:]); err != nil {
				_ = conn.Close()
				send(wired{err: fmt.Errorf("hello to %d: %w", peer, err)})
				return
			}
			send(wired{peer: peer, conn: conn})
		}(peer)
	}
	go func() {
		for i := 0; i < worker; i++ {
			conn, err := ln.Accept()
			if err != nil {
				send(wired{err: fmt.Errorf("accept: %w", err)})
				return
			}
			var hello [4]byte
			_ = conn.SetReadDeadline(deadline)
			if _, err := io.ReadFull(conn, hello[:]); err != nil {
				_ = conn.Close()
				send(wired{err: fmt.Errorf("read hello: %w", err)})
				return
			}
			_ = conn.SetReadDeadline(time.Time{})
			peer := int(binary.LittleEndian.Uint32(hello[:]))
			if peer < 0 || peer >= worker {
				_ = conn.Close()
				send(wired{err: fmt.Errorf("bad hello id %d", peer)})
				return
			}
			send(wired{peer: peer, conn: conn})
		}
	}()

	conns := make([]net.Conn, k)
	timeout := time.After(dialTimeout)
	var err error
	for need := k - 1; need > 0 && err == nil; need-- {
		select {
		case r := <-results:
			switch {
			case r.err != nil:
				err = fmt.Errorf("transport: wiring worker %d: %w", worker, r.err)
			case conns[r.peer] != nil:
				_ = r.conn.Close()
				err = fmt.Errorf("transport: worker %d wired peer %d twice", worker, r.peer)
			default:
				conns[r.peer] = r.conn
			}
		case <-ctx.Done(): // reported below
		case <-timeout:
			err = fmt.Errorf("transport: worker %d timed out waiting for peers", worker)
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = ctxErr
		}
	}
	if err != nil {
		closeConns(conns)
		return nil, err
	}
	return conns, nil
}

func closeConns(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// workerJob is the id of a per-process endpoint's single job.
const workerJob = 0

// NewTCPWorker builds one worker's endpoint of a multi-process TCP mesh
// from an explicit address list: addrs[i] is where worker i listens. Each
// process calls it with its own id; ln, when non-nil, is the worker's
// already-bound listener (addrs[worker] is then ignored — the cluster
// agent binds an ephemeral port before the peer list exists), otherwise
// the endpoint listens on addrs[worker]. Peers are wired by the same path
// as the loopback mesh (wireWorker: dials retried with exponential
// backoff until dialTimeout; ctx aborts the wait), and the endpoint
// speaks the deployment's default wire, v4 with a CRC-32C on every frame.
//
// The returned Transport serves one job of the given value width: it is
// registered before the demux readers start, so a fast peer's first frame
// always finds its inbox. Close tears the endpoint down — connections
// included, so peers observe it exactly as they would a crashed process.
// A peer that finishes and closes cleanly does not fail this endpoint:
// its buffered frames are still delivered, and only an exchange that
// needs a further frame from it fails, with *PeerClosedError.
func NewTCPWorker(ctx context.Context, worker int, addrs []string, ln net.Listener, dialTimeout time.Duration, width int) (Transport, error) {
	if width < 1 || width > MaxValueWidth {
		if ln != nil {
			_ = ln.Close()
		}
		return nil, fmt.Errorf("transport: width %d out of range [1,%d]", width, MaxValueWidth)
	}
	conns, err := wireWorker(ctx, worker, addrs, ln, dialTimeout)
	if err != nil {
		return nil, err
	}
	w := &tcpWorker{}
	node := newMuxNode(worker, conns, WireV4, 0, &w.wire)
	if w.muxJob, err = node.openJob(workerJob, width); err != nil {
		closeConns(conns)
		return nil, err
	}
	node.startReaders(&w.readers)
	return w, nil
}

// tcpWorker is a per-process endpoint: one mux node serving its single
// job.
type tcpWorker struct {
	*muxJob
	readers sync.WaitGroup
	wire    atomic.Int64
}

// Close implements Transport: the node fails with ErrClosed (releasing a
// blocked Exchange), its connections close, and the demux readers are
// waited out.
func (w *tcpWorker) Close() error {
	w.node.fail(ErrClosed)
	w.readers.Wait()
	return nil
}

// DialBackoff dials addr with retries under exponential backoff (10ms
// doubling to a 1s ceiling) until the dial succeeds, ctx is canceled or
// deadline passes. Peers racing to bind their listeners converge fast (the
// early retries are cheap) without hammering a peer that is minutes away.
func DialBackoff(ctx context.Context, addr string, deadline time.Time) (net.Conn, error) {
	backoff := 10 * time.Millisecond
	const maxBackoff = time.Second
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		attempt := time.Second
		if remaining < attempt {
			attempt = remaining
		}
		dialCtx, cancel := context.WithTimeout(ctx, attempt)
		conn, err := (&net.Dialer{}).DialContext(dialCtx, "tcp", addr)
		cancel()
		if err == nil {
			return conn, nil
		}
		lastErr = err
		sleep := backoff
		if rem := time.Until(deadline); sleep > rem {
			sleep = rem
		}
		if sleep > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(sleep):
			}
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	if lastErr == nil {
		lastErr = errors.New("deadline passed")
	}
	return nil, lastErr
}
