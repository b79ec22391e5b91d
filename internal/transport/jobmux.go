package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"ebv/internal/graph"
)

// TCPMeshDeployment is the TCP Deployment: a full loopback mesh wired once
// and shared by every job. It multiplexes many jobs over the same
// connections, so every frame is tagged with its job id and a
// per-connection demux goroutine routes incoming frames to the owning
// job's inbox. Interleaved jobs' batches therefore never cross: a frame
// for job j is only ever delivered to job j's Exchange, a frame whose
// width disagrees with the job's fails that job loudly, and a frame for a
// job the deployment has never opened kills the node (cross-job
// corruption is a protocol violation, not noise). Each worker's end of
// the mesh is one muxNode — the same node a per-process NewTCPWorker
// endpoint runs, wired by the same path.
//
// The deployment speaks one of two job-tagged frame formats, negotiated
// per-deployment via WithWireFormat (default WireV4; every node of one
// deployment uses the same format, and a peer speaking another version
// fails its first frame at the magic check with an error naming the skew).
//
// Job frame layout (little endian), version 3 ("EBVJ") — the raw format:
//
//	u32 magic | u32 job | u32 step | u8 active | u32 width | u32 count |
//	u32 idBytes  | count × u32 vertex id        (64 KiB blocks)
//	u32 valBytes | count·width × f64 value      (64 KiB blocks)
//
// Version 4 ("EBV4", the default) compresses both columns and seals the
// frame with a CRC-32C (see wirecodec.go for the column codecs):
//
//	u32 magic | u32 job | u32 step | u8 active | u8 flags | u32 width |
//	u32 count | u32 idBytes | u32 valBytes | u32 crc |
//	idBytes  × zigzag-delta uvarint vertex ids
//	valBytes × packed values (or raw f64 when packing would expand)
//
// The CRC covers every header field after the magic plus both columns, so
// any corrupted frame — including any single bit flip — is rejected
// loudly instead of decoding to garbage.
type TCPMeshDeployment struct {
	k       int
	nodes   []*muxNode
	mu      sync.Mutex
	closed  bool
	readers sync.WaitGroup
	format  WireFormat
	wire    atomic.Int64
}

var _ Deployment = (*TCPMeshDeployment)(nil)

// MeshOption configures a TCPMeshDeployment.
type MeshOption func(*meshSettings)

type meshSettings struct {
	format    WireFormat
	quantBits int
}

// WithWireFormat selects the deployment's job frame encoding (default
// WireV4). Every node of a deployment speaks the chosen format; deploy
// WireV3 only to interoperate with peers that predate the v4 codec.
func WithWireFormat(f WireFormat) MeshOption {
	return func(s *meshSettings) { s.format = f }
}

// WithWireQuantization rounds every value's mantissa to its top bits
// significant bits before v4 encoding — a LOSSY transform (results are no
// longer byte-identical to an uncompressed run) that buys wire bytes on
// noisy-mantissa payloads. 0 (the default) is off/lossless; valid values
// are 1..51. Requires WireV4.
func WithWireQuantization(bits int) MeshOption {
	return func(s *meshSettings) { s.quantBits = bits }
}

// NewTCPMeshDeployment wires a persistent k-worker loopback mesh — k
// listeners on 127.0.0.1:0, each worker wired by wireWorker — and starts
// its demux readers. Canceling ctx aborts the wiring (not the finished
// deployment — tear that down with Close).
func NewTCPMeshDeployment(ctx context.Context, k int, opts ...MeshOption) (*TCPMeshDeployment, error) {
	settings := meshSettings{format: WireV4}
	for _, opt := range opts {
		opt(&settings)
	}
	switch settings.format {
	case WireV3, WireV4:
	default:
		return nil, fmt.Errorf("transport: unknown wire format %d (valid: WireV3, WireV4)", settings.format)
	}
	if q := settings.quantBits; q != 0 {
		if settings.format != WireV4 {
			return nil, fmt.Errorf("transport: wire quantization requires WireV4, deployment speaks %s", settings.format)
		}
		if q < 1 || q > 51 {
			return nil, fmt.Errorf("transport: wire quantization keeps %d mantissa bits, valid range is 1..51", q)
		}
	}
	if k < 1 {
		return nil, fmt.Errorf("transport: need at least 1 worker, got %d", k)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	listeners := make([]net.Listener, k)
	addrs := make([]string, k)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				_ = l.Close()
			}
			return nil, fmt.Errorf("transport: listen worker %d: %w", i, err)
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	// Wire every worker concurrently; the first failure cancels the rest,
	// so no acceptor waits out the deadline for a dial that never comes.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	conns := make([][]net.Conn, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if conns[i], errs[i] = wireWorker(wctx, i, addrs, listeners[i], 0); errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err != nil && (firstErr == nil || errors.Is(firstErr, context.Canceled)) {
			firstErr = err
		}
	}
	if firstErr != nil {
		for _, cs := range conns {
			closeConns(cs)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, firstErr
	}
	d := &TCPMeshDeployment{k: k, nodes: make([]*muxNode, k), format: settings.format}
	for i := range d.nodes {
		d.nodes[i] = newMuxNode(i, conns[i], settings.format, settings.quantBits, &d.wire)
		d.nodes[i].startReaders(&d.readers)
	}
	return d, nil
}

// NumWorkers implements Deployment.
func (d *TCPMeshDeployment) NumWorkers() int { return d.k }

// Format reports the deployment's negotiated wire format.
func (d *TCPMeshDeployment) Format() WireFormat { return d.format }

// WireBytes reports the total frame bytes (headers and columns) this
// deployment's nodes have written to their peers since construction — the
// wire-volume axis EXPERIMENTS.md and ebv-bench track across codec
// changes. Self-delivery never touches the wire and is not counted.
func (d *TCPMeshDeployment) WireBytes() int64 { return d.wire.Load() }

// OpenJob implements Deployment: the job is registered on every node's
// demux table before any transport is returned, so a fast worker's first
// frame always finds its inbox.
func (d *TCPMeshDeployment) OpenJob(job uint32, width int) ([]Transport, error) {
	if width < 1 || width > MaxValueWidth {
		return nil, fmt.Errorf("transport: job %d width %d out of range [1,%d]", job, width, MaxValueWidth)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	ts := make([]Transport, d.k)
	for i, n := range d.nodes {
		j, err := n.openJob(job, width)
		if err != nil {
			for _, t := range ts[:i] {
				_ = t.Close()
			}
			return nil, err
		}
		ts[i] = j
	}
	return ts, nil
}

// Close implements Deployment: every open job fails with ErrClosed, all
// connections close, and the demux readers are waited out. The cause is
// recorded on every node before any connection closes: tearing node A
// down makes node B's demux observe EOF on the shared connection, and
// without the pre-marking pass a racing B could treat that EOF as a
// peer's clean close and fail its jobs with *PeerClosedError instead of
// ErrClosed.
func (d *TCPMeshDeployment) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	for _, n := range d.nodes {
		n.markFailed(ErrClosed)
	}
	for _, n := range d.nodes {
		n.fail(ErrClosed)
	}
	d.readers.Wait()
	return nil
}

// jobFrameBuffer bounds each (job, src) inbox. The BSP lock-step invariant
// keeps at most 2 frames outstanding per (job, src) — a worker can run at
// most one step ahead of the slowest peer that acknowledged it — so a full
// inbox means protocol violation, and the demux fails the job rather than
// head-of-line-block every other job on the connection.
const jobFrameBuffer = 4

// muxNode is one worker's endpoint of a TCP mesh — a deployment's node or
// a per-process NewTCPWorker: the connections to its peers (shared by
// every job), per-peer write locks, and the demux table routing incoming
// frames to jobs.
type muxNode struct {
	worker int
	k      int
	conns  []net.Conn // conns[peer]; nil at index == worker
	bufw   []*bufio.Writer
	wmu    []sync.Mutex // guards bufw[peer], enc[peer] and frame atomicity on the wire
	enc    []*v4Scratch // per-peer v4 encode scratch; lazily built under wmu[peer]
	format WireFormat
	quant  int           // v4 mantissa bits to keep (0 = lossless)
	wire   *atomic.Int64 // deployment-wide frame bytes written

	mu       sync.Mutex
	jobs     map[uint32]*muxJob
	retired  map[uint32]struct{}
	failed   error // demux death (conn error, cross-job frame); nil while healthy
	tornDown bool  // fail already ran (jobs failed, connections closed)
	gone     error // first peer that closed cleanly (*PeerClosedError); nil while all are up
}

// newMuxNode builds worker's node over its wired connections (conns[peer],
// nil at index == worker).
func newMuxNode(worker int, conns []net.Conn, format WireFormat, quant int, wire *atomic.Int64) *muxNode {
	k := len(conns)
	return &muxNode{
		worker:  worker,
		k:       k,
		conns:   conns,
		bufw:    make([]*bufio.Writer, k),
		wmu:     make([]sync.Mutex, k),
		enc:     make([]*v4Scratch, k),
		format:  format,
		quant:   quant,
		wire:    wire,
		jobs:    make(map[uint32]*muxJob),
		retired: make(map[uint32]struct{}),
	}
}

// startReaders launches one demux goroutine per peer connection, counted
// on readers.
func (n *muxNode) startReaders(readers *sync.WaitGroup) {
	for peer, c := range n.conns {
		if c == nil {
			continue
		}
		readers.Add(1)
		go func(peer int) {
			defer readers.Done()
			n.readLoop(peer)
		}(peer)
	}
}

// PeerClosedError reports that a peer closed its connection cleanly — at
// a frame boundary, the way a worker that finished its last superstep
// exits — while a job still needed a frame from it.
type PeerClosedError struct {
	Worker int // the peer that closed
}

func (e *PeerClosedError) Error() string {
	return fmt.Sprintf("transport: worker %d closed its connection", e.Worker)
}

// jobFrame is one decoded frame queued for a job's Exchange.
type jobFrame struct {
	step   int
	active bool
	batch  *MessageBatch
}

// muxJob is one worker's job-scoped Transport over the shared node.
type muxJob struct {
	node  *muxNode
	job   uint32
	width int
	in    []chan jobFrame // in[src]; nil at index == node.worker
	done  chan struct{}   // closed when the job fails or closes
	err   error           // cause; written before done closes
}

var _ Transport = (*muxJob)(nil)

// openJob registers a job on this node.
func (n *muxNode) openJob(job uint32, width int) (*muxJob, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed != nil {
		return nil, fmt.Errorf("transport: worker %d deployment failed: %w", n.worker, n.failed)
	}
	if n.gone != nil {
		return nil, fmt.Errorf("transport: worker %d cannot open job %d: %w", n.worker, job, n.gone)
	}
	if _, open := n.jobs[job]; open {
		return nil, fmt.Errorf("transport: job %d already open", job)
	}
	if _, was := n.retired[job]; was {
		return nil, fmt.Errorf("transport: job %d already served (ids are single-use)", job)
	}
	j := &muxJob{
		node:  n,
		job:   job,
		width: width,
		in:    make([]chan jobFrame, n.k),
		done:  make(chan struct{}),
	}
	for peer := 0; peer < n.k; peer++ {
		if peer != n.worker {
			j.in[peer] = make(chan jobFrame, jobFrameBuffer)
		}
	}
	n.jobs[job] = j
	return j, nil
}

// failJob retires a job with the given cause, releasing its blocked
// exchanges. Idempotent; the node keeps serving other jobs.
func (n *muxNode) failJob(j *muxJob, cause error) {
	n.mu.Lock()
	if _, open := n.jobs[j.job]; !open {
		n.mu.Unlock()
		return
	}
	delete(n.jobs, j.job)
	n.retired[j.job] = struct{}{}
	j.err = cause
	close(j.done)
	n.mu.Unlock()
	j.drainInboxes()
}

// markFailed records cause as the node's failure cause if none is set
// yet, without tearing anything down: new jobs are rejected and a later
// fail — whatever triggered it — reports this cause. Close uses it to
// pre-mark every node before any connection goes down.
func (n *muxNode) markFailed(cause error) {
	n.mu.Lock()
	if n.failed == nil {
		n.failed = cause
	}
	n.mu.Unlock()
}

// fail kills the whole node: every open job fails and the connections
// close (peers observe it and fail their own demuxes — the
// deployment-wide analogue of a crashed process). Idempotent; the
// node's first recorded cause wins over the caller's.
func (n *muxNode) fail(cause error) {
	n.mu.Lock()
	if n.tornDown {
		n.mu.Unlock()
		return
	}
	n.tornDown = true
	if n.failed == nil {
		n.failed = cause
	}
	cause = n.failed
	jobs := make([]*muxJob, 0, len(n.jobs))
	for _, j := range n.jobs {
		jobs = append(jobs, j)
	}
	n.mu.Unlock()
	for _, j := range jobs {
		n.failJob(j, cause)
	}
	for _, c := range n.conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// readLoop is the demux for one peer connection: it decodes job frames of
// the deployment's negotiated format and routes them to the owning job's
// inbox until the peer closes cleanly (peerClosed) or the connection
// fails (fail).
func (n *muxNode) readLoop(peer int) {
	br := bufio.NewReaderSize(n.conns[peer], 1<<16)
	var dec v4Scratch // per-connection decode scratch, reused across frames
	for {
		// A clean EOF at a frame boundary is a peer that is done, not a
		// fault; an EOF inside a frame still fails the node below.
		_, err := br.Peek(1)
		if err == io.EOF {
			n.peerClosed(peer)
			return
		}
		var (
			job    uint32
			step   int
			active bool
			batch  *MessageBatch
		)
		if err == nil && n.format == WireV4 {
			job, step, active, batch, err = readJobFrameV4(br, &dec)
		} else if err == nil {
			job, step, active, batch, err = readJobFrame(br)
		}
		if err != nil {
			n.fail(fmt.Errorf("transport: demux at worker %d from %d: %w", n.worker, peer, err))
			return
		}
		if !n.route(peer, job, jobFrame{step: step, active: active, batch: batch}) {
			return
		}
	}
}

// peerClosed handles peer's clean close: the frames it already sent stay
// queued, after which every open job's inbox from it closes (an Exchange
// still waiting on that peer fails with *PeerClosedError) and new jobs
// are refused. Only this peer's read loop sends on those inboxes, and it
// has stopped, so closing them cannot race a send. On a node already
// marked failed the EOF is its own teardown's echo: that teardown
// releases the jobs with the recorded cause.
func (n *muxNode) peerClosed(peer int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed != nil {
		return
	}
	if n.gone == nil {
		n.gone = &PeerClosedError{Worker: peer}
	}
	for _, j := range n.jobs {
		close(j.in[peer])
	}
}

// route delivers one decoded frame; false stops the read loop (node dead).
func (n *muxNode) route(peer int, job uint32, f jobFrame) bool {
	n.mu.Lock()
	j, open := n.jobs[job]
	if !open {
		_, wasServed := n.retired[job]
		n.mu.Unlock()
		RecycleBatch(f.batch)
		if wasServed {
			return true // straggler frame of a finished job: drop
		}
		n.fail(fmt.Errorf("transport: worker %d received a frame for unknown job %d from worker %d (cross-job corruption)",
			n.worker, job, peer))
		return false
	}
	n.mu.Unlock()
	if f.batch != nil && f.batch.Width != j.width {
		got := f.batch.Width
		RecycleBatch(f.batch)
		n.failJob(j, fmt.Errorf("transport: job %d is width %d, frame from worker %d has width %d",
			job, j.width, peer, got))
		return true
	}
	select {
	case j.in[peer] <- f:
	default:
		RecycleBatch(f.batch)
		n.failJob(j, fmt.Errorf("transport: job %d inbox from worker %d overflowed (step skew)", job, peer))
	}
	return true
}

// writerTo returns the shared buffered writer for peer; the caller must
// hold wmu[peer].
func (n *muxNode) writerTo(peer int) *bufio.Writer {
	if n.bufw[peer] == nil {
		n.bufw[peer] = bufio.NewWriterSize(n.conns[peer], 1<<16)
	}
	return n.bufw[peer]
}

// writeFrame writes one job frame to peer in the deployment's negotiated
// format under the per-peer write lock (keeping interleaved jobs' frames
// atomic on the shared stream) and charges the frame's bytes to the
// deployment's wire counter.
func (n *muxNode) writeFrame(peer int, job uint32, step int, active bool, batch *MessageBatch) error {
	n.wmu[peer].Lock()
	defer n.wmu[peer].Unlock()
	var err error
	if n.format == WireV4 {
		if n.enc[peer] == nil {
			n.enc[peer] = new(v4Scratch)
		}
		var wrote int
		wrote, err = writeJobFrameV4(n.writerTo(peer), job, step, active, batch, n.quant, n.enc[peer])
		n.wire.Add(int64(wrote))
	} else if err = writeJobFrame(n.writerTo(peer), job, step, active, batch); err == nil {
		wire := int64(jobFrameHeaderBytes)
		if count := batch.Len(); count > 0 {
			wire += 8 + int64(count)*4 + int64(count*batch.Width)*8 // column prefixes + columns
		}
		n.wire.Add(wire)
	}
	if err != nil {
		// A write can lose the teardown race: fail/Close record the node's
		// cause before closing any connection, so the recorded cause — not
		// the induced "use of closed network connection" — is the story.
		n.mu.Lock()
		if n.failed != nil {
			err = n.failed
		}
		n.mu.Unlock()
	}
	return err
}

// failure returns the job's recorded cause (safe after done closed).
func (j *muxJob) failure() error {
	if j.err != nil {
		return j.err
	}
	return ErrClosed
}

// drainInboxes recycles queued frames of a retired job (best-effort: a
// frame routed concurrently with retirement is stranded to the GC, which
// the pool tolerates).
func (j *muxJob) drainInboxes() {
	for _, ch := range j.in {
		if ch == nil {
			continue
		}
		for drained := false; !drained; {
			select {
			case f, ok := <-ch:
				RecycleBatch(f.batch)
				drained = !ok
			default:
				drained = true
			}
		}
	}
}

// Exchange implements Transport for one job over the shared mesh.
// Cancellation is Close() by design — the Transport contract (see
// RunWorkerCtx, which closes the transport when its ctx fires).
//
//ebv:nolint ctxflow Transport.Exchange cancels via Close, not a context parameter
func (j *muxJob) Exchange(worker, step int, out []*MessageBatch, active bool) (ExchangeResult, error) {
	n := j.node
	if worker != n.worker {
		return ExchangeResult{}, fmt.Errorf("transport: job %d instance owns worker %d, called as %d",
			j.job, n.worker, worker)
	}
	select {
	case <-j.done:
		return ExchangeResult{}, j.failure()
	default:
	}
	// Reject cross-width batches before anything reaches the wire, so the
	// sender fails as loudly as the receiving demux would.
	for dst, batch := range out {
		if batch != nil && batch.Width != j.width {
			return ExchangeResult{}, fmt.Errorf(
				"transport: job %d is width %d, outgoing batch for worker %d has width %d",
				j.job, j.width, dst, batch.Width)
		}
	}

	res := ExchangeResult{In: make([]*MessageBatch, n.k), AnyActive: active}
	if worker < len(out) {
		res.In[worker] = out[worker] // self-delivery without the network
	}

	// Write one tagged frame to every peer concurrently; the per-peer lock
	// keeps frames of interleaved jobs atomic on the shared stream.
	var wg sync.WaitGroup
	errCh := make(chan error, n.k)
	for peer := 0; peer < n.k; peer++ {
		if peer == worker {
			continue
		}
		var batch *MessageBatch
		if peer < len(out) {
			batch = out[peer]
		}
		wg.Add(1)
		go func(peer int, batch *MessageBatch) {
			defer wg.Done()
			if err := n.writeFrame(peer, j.job, step, active, batch); err != nil {
				errCh <- fmt.Errorf("transport: job %d write to %d: %w", j.job, peer, err)
			}
		}(peer, batch)
	}

	// Receive this job's frame from every peer via the demux inboxes.
	var firstErr error
	for peer := 0; peer < n.k; peer++ {
		if peer == worker {
			continue
		}
		select {
		case f, ok := <-j.in[peer]:
			if !ok {
				if firstErr == nil {
					firstErr = &PeerClosedError{Worker: peer}
				}
				continue
			}
			if f.step != step {
				RecycleBatch(f.batch)
				if firstErr == nil {
					firstErr = fmt.Errorf("transport: job %d step skew from %d: got %d want %d",
						j.job, peer, f.step, step)
				}
				continue
			}
			res.In[peer] = f.batch
			res.AnyActive = res.AnyActive || f.active
		case <-j.done:
			if firstErr == nil {
				firstErr = j.failure()
			}
		}
	}
	wg.Wait()
	close(errCh)
	if firstErr == nil {
		for err := range errCh {
			firstErr = err
			break
		}
		if firstErr != nil {
			// A write can lose the teardown race: fail/Close record the
			// node's cause before closing the connections, and the raw
			// "use of closed network connection" from a blocked write can
			// surface before this job observes j.done. The recorded cause
			// (ErrClosed on deployment Close) is the real story.
			n.mu.Lock()
			if n.failed != nil {
				firstErr = n.failed
			}
			n.mu.Unlock()
		}
	}
	// Frames are on the wire (or abandoned): recycle the outgoing batches.
	// The self slot stays alive — it was handed back in In.
	for peer := 0; peer < n.k && peer < len(out); peer++ {
		if peer != worker {
			RecycleBatch(out[peer])
		}
	}
	if firstErr != nil {
		return ExchangeResult{}, firstErr
	}
	// Peer-wait cannot be separated from wire time without extra control
	// round-trips: Wait stays 0 and callers attribute the whole exchange
	// to communication.
	return res, nil
}

// NumWorkers implements Transport.
func (j *muxJob) NumWorkers() int { return j.node.k }

// Close implements Transport: it retires this worker's view of the job
// (releasing its blocked Exchange, recycling queued frames); the mesh and
// every other job stay up.
func (j *muxJob) Close() error {
	j.node.failJob(j, ErrClosed)
	return nil
}

const (
	// jobFrameMagic marks a job-mux (version 3) frame; see
	// TCPMeshDeployment. Distinct from the v4 magic so mixed-version
	// peers fail the first frame loudly.
	jobFrameMagic = 0x4542564A // "EBVJ"

	jobFrameHeaderBytes = 21 // magic + job + step + active + width + count

	// maxWireWidth and maxWireMessages bound what a frame header may
	// claim, so a corrupt or hostile peer cannot force a giant
	// allocation. The product bound caps the value column at 2 GiB —
	// comfortably inside the u32 byte-length prefix (2^28 values × 8
	// bytes = 2^31). The writers enforce the same bounds, so an oversized
	// batch fails with a clear local error instead of a corrupt-frame
	// error at the receiver.
	maxWireWidth    = MaxValueWidth
	maxWireMessages = 1 << 28
	maxWireValues   = 1 << 28
)

// writeJobFrame encodes one job-tagged columnar frame into bw and flushes
// it. A nil or empty batch writes an empty frame (count 0, no columns).
func writeJobFrame(bw *bufio.Writer, job uint32, step int, active bool, batch *MessageBatch) error {
	var header [jobFrameHeaderBytes]byte
	binary.LittleEndian.PutUint32(header[0:4], jobFrameMagic)
	binary.LittleEndian.PutUint32(header[4:8], job)
	binary.LittleEndian.PutUint32(header[8:12], uint32(step))
	if active {
		header[12] = 1
	}
	width, count := 0, 0
	if batch != nil {
		width, count = batch.Width, batch.Len()
	}
	if count > maxWireMessages || count*width > maxWireValues {
		return fmt.Errorf("batch of %d messages × width %d exceeds the wire cap (%d messages, %d values)",
			count, width, maxWireMessages, maxWireValues)
	}
	binary.LittleEndian.PutUint32(header[13:17], uint32(width))
	binary.LittleEndian.PutUint32(header[17:21], uint32(count))
	if _, err := bw.Write(header[:]); err != nil {
		return err
	}
	if count > 0 {
		if err := writeColumns(bw, batch, count, width); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readJobFrame decodes one job-tagged columnar frame. A non-empty frame
// returns a pooled batch owned by the caller.
func readJobFrame(br *bufio.Reader) (job uint32, step int, active bool, batch *MessageBatch, err error) {
	var header [jobFrameHeaderBytes]byte
	if _, err = io.ReadFull(br, header[:]); err != nil {
		return 0, 0, false, nil, err
	}
	if magic := binary.LittleEndian.Uint32(header[0:4]); magic != jobFrameMagic {
		if magic == jobFrameMagicV4 {
			return 0, 0, false, nil, fmt.Errorf(
				"job frame magic %#x is wire v4 (EBV4): peer speaks the compressed format to a v3 deployment — align WithWireFormat across every node", magic)
		}
		return 0, 0, false, nil, fmt.Errorf(
			"bad job frame magic %#x (peer speaking another wire format?)", magic)
	}
	job = binary.LittleEndian.Uint32(header[4:8])
	step = int(binary.LittleEndian.Uint32(header[8:12]))
	active = header[12] == 1
	width := int(binary.LittleEndian.Uint32(header[13:17]))
	count := int(binary.LittleEndian.Uint32(header[17:21]))
	if count == 0 {
		return job, step, active, nil, nil
	}
	batch, err = readColumns(br, width, count)
	if err != nil {
		return 0, 0, false, nil, err
	}
	return job, step, active, batch, nil
}

// writeColumns writes a batch's ID and value columns as two length-prefixed
// 64 KiB-block runs — the column body of the v3 frame format.
func writeColumns(bw *bufio.Writer, batch *MessageBatch, count, width int) error {
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(count*4))
	if _, err := bw.Write(prefix[:]); err != nil {
		return err
	}
	if err := graph.WriteBlocks(bw, count, 4, func(dst []byte, i int) {
		binary.LittleEndian.PutUint32(dst, batch.IDs[i])
	}); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(prefix[:], uint32(count*width*8))
	if _, err := bw.Write(prefix[:]); err != nil {
		return err
	}
	return graph.WriteBlocks(bw, count*width, 8, func(dst []byte, i int) {
		binary.LittleEndian.PutUint64(dst, math.Float64bits(batch.Vals[i]))
	})
}

// readColumns validates a frame's claimed shape and reads its ID and value
// columns into a pooled batch owned by the caller — the column body of the
// v3 frame format.
func readColumns(br *bufio.Reader, width, count int) (*MessageBatch, error) {
	if width < 1 || width > maxWireWidth {
		return nil, fmt.Errorf("frame width %d out of range [1,%d]", width, maxWireWidth)
	}
	if count < 0 || count > maxWireMessages || count*width > maxWireValues {
		return nil, fmt.Errorf("frame of %d messages × width %d exceeds the wire cap",
			count, width)
	}
	var prefix [4]byte
	if _, err := io.ReadFull(br, prefix[:]); err != nil {
		return nil, err
	}
	if got := int(binary.LittleEndian.Uint32(prefix[:])); got != count*4 {
		return nil, fmt.Errorf("id column is %d bytes, want %d", got, count*4)
	}
	b := GetBatch(width)
	b.IDs = slices.Grow(b.IDs, count)[:count]
	b.Vals = slices.Grow(b.Vals, count*width)[:count*width]
	if err := graph.ReadBlocks(br, count, 4, func(src []byte, i int) {
		b.IDs[i] = binary.LittleEndian.Uint32(src)
	}); err != nil {
		RecycleBatch(b)
		return nil, err
	}
	if _, err := io.ReadFull(br, prefix[:]); err != nil {
		RecycleBatch(b)
		return nil, err
	}
	if got := int(binary.LittleEndian.Uint32(prefix[:])); got != count*width*8 {
		RecycleBatch(b)
		return nil, fmt.Errorf("value column is %d bytes, want %d", got, count*width*8)
	}
	if err := graph.ReadBlocks(br, count*width, 8, func(src []byte, i int) {
		b.Vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
	}); err != nil {
		RecycleBatch(b)
		return nil, err
	}
	return b, nil
}

const (
	// jobFrameMagicV4 marks a compressed job-mux (version 4) frame; see
	// TCPMeshDeployment. Distinct from v3's "EBVJ" so a mixed-version
	// pairing fails its first frame loudly.
	jobFrameMagicV4 = 0x45425634 // "EBV4"

	// jobFrameHeaderBytesV4: magic + job + step + active + flags + width +
	// count + idBytes + valBytes + crc.
	jobFrameHeaderBytesV4 = 34
)

// v4Scratch is the reusable frame codec scratch: one per peer on the
// write side (guarded by the per-peer write lock), one per demux
// goroutine on the read side, so steady-state frames encode and decode
// without allocating.
type v4Scratch struct {
	ids  []byte // encoded ID column
	vals []byte // encoded value column
	buf  []byte // reader-side payload staging
}

// writeJobFrameV4 encodes one compressed job-tagged frame into bw and
// flushes it, returning the frame's wire size. quant > 0 keeps only the
// top quant mantissa bits of every value (lossy; applied in place — the
// batch belongs to the transport at this point and is recycled after the
// write). A nil or empty batch writes an empty frame (count 0, no
// columns).
func writeJobFrameV4(bw *bufio.Writer, job uint32, step int, active bool, batch *MessageBatch, quant int, s *v4Scratch) (int, error) {
	width, count := 0, 0
	if batch != nil {
		width, count = batch.Width, batch.Len()
	}
	if count > maxWireMessages || count*width > maxWireValues {
		return 0, fmt.Errorf("batch of %d messages × width %d exceeds the wire cap (%d messages, %d values)",
			count, width, maxWireMessages, maxWireValues)
	}
	var flags byte
	s.ids, s.vals = s.ids[:0], s.vals[:0]
	if count == 0 {
		width = 0 // canonical empty frame
	} else {
		if quant > 0 {
			quantizeVals(batch.Vals, quant)
			flags |= v4FlagQuantized
		}
		flags |= v4FlagDeltaIDs
		s.ids = appendDeltaIDs(s.ids, batch.IDs)
		s.vals = appendPackedVals(s.vals, batch.Vals)
		if len(s.vals) < count*width*8 {
			flags |= v4FlagPackedVal
		} else {
			// Packing would expand this column (noisy-mantissa payloads
			// can cost 9 bytes/value): ship it raw and say so in flags.
			s.vals = s.vals[:0]
			for _, v := range batch.Vals {
				s.vals = binary.LittleEndian.AppendUint64(s.vals, math.Float64bits(v))
			}
		}
	}
	var header [jobFrameHeaderBytesV4]byte
	binary.LittleEndian.PutUint32(header[0:4], jobFrameMagicV4)
	binary.LittleEndian.PutUint32(header[4:8], job)
	binary.LittleEndian.PutUint32(header[8:12], uint32(step))
	if active {
		header[12] = 1
	}
	header[13] = flags
	binary.LittleEndian.PutUint32(header[14:18], uint32(width))
	binary.LittleEndian.PutUint32(header[18:22], uint32(count))
	binary.LittleEndian.PutUint32(header[22:26], uint32(len(s.ids)))
	binary.LittleEndian.PutUint32(header[26:30], uint32(len(s.vals)))
	crc := crc32.Update(0, castagnoli, header[4:30])
	crc = crc32.Update(crc, castagnoli, s.ids)
	crc = crc32.Update(crc, castagnoli, s.vals)
	binary.LittleEndian.PutUint32(header[30:34], crc)
	if _, err := bw.Write(header[:]); err != nil {
		return 0, err
	}
	if _, err := bw.Write(s.ids); err != nil {
		return 0, err
	}
	if _, err := bw.Write(s.vals); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return jobFrameHeaderBytesV4 + len(s.ids) + len(s.vals), nil
}

// readJobFrameV4 decodes one compressed job-tagged frame. The frame's
// shape is validated against the wire caps before anything is allocated,
// the CRC is verified over header and payload before anything is decoded
// (so any corrupted frame — any single bit flip included — fails here
// loudly), and both columns must decode exactly: truncation, trailing
// bytes, out-of-range ids and invalid value descriptors are all errors.
// A non-empty frame returns a pooled batch owned by the caller.
func readJobFrameV4(br *bufio.Reader, s *v4Scratch) (job uint32, step int, active bool, batch *MessageBatch, err error) {
	var header [jobFrameHeaderBytesV4]byte
	if _, err = io.ReadFull(br, header[:]); err != nil {
		return 0, 0, false, nil, err
	}
	if magic := binary.LittleEndian.Uint32(header[0:4]); magic != jobFrameMagicV4 {
		if magic == jobFrameMagic {
			return 0, 0, false, nil, fmt.Errorf(
				"job frame magic %#x is wire v3 (EBVJ): peer speaks the raw format to a v4 deployment — align WithWireFormat across every node", magic)
		}
		return 0, 0, false, nil, fmt.Errorf(
			"bad v4 job frame magic %#x (peer speaking another wire format?)", magic)
	}
	job = binary.LittleEndian.Uint32(header[4:8])
	step = int(binary.LittleEndian.Uint32(header[8:12]))
	active = header[12] == 1
	flags := header[13]
	width := int(binary.LittleEndian.Uint32(header[14:18]))
	count := int(binary.LittleEndian.Uint32(header[18:22]))
	idBytes := int(binary.LittleEndian.Uint32(header[22:26]))
	valBytes := int(binary.LittleEndian.Uint32(header[26:30]))
	wantCRC := binary.LittleEndian.Uint32(header[30:34])

	if flags&^(v4FlagDeltaIDs|v4FlagPackedVal|v4FlagQuantized) != 0 {
		return 0, 0, false, nil, fmt.Errorf("v4 frame has unknown flags %#x", flags)
	}
	if count == 0 {
		if flags != 0 || width != 0 || idBytes != 0 || valBytes != 0 {
			return 0, 0, false, nil, fmt.Errorf(
				"empty v4 frame is non-canonical (flags %#x width %d idBytes %d valBytes %d)",
				flags, width, idBytes, valBytes)
		}
	} else {
		if width < 1 || width > maxWireWidth {
			return 0, 0, false, nil, fmt.Errorf("v4 frame width %d out of range [1,%d]", width, maxWireWidth)
		}
		if count < 0 || count > maxWireMessages || count*width > maxWireValues {
			return 0, 0, false, nil, fmt.Errorf("v4 frame of %d messages × width %d exceeds the wire cap", count, width)
		}
		if flags&v4FlagDeltaIDs == 0 {
			return 0, 0, false, nil, fmt.Errorf("v4 frame without delta-encoded ids (flags %#x)", flags)
		}
		if idBytes < count || idBytes > count*5 {
			return 0, 0, false, nil, fmt.Errorf("v4 id column is %d bytes for %d ids (valid range [%d,%d])",
				idBytes, count, count, count*5)
		}
		values := count * width
		if flags&v4FlagPackedVal != 0 {
			if valBytes < values || valBytes > values*9 {
				return 0, 0, false, nil, fmt.Errorf("v4 packed value column is %d bytes for %d values (valid range [%d,%d])",
					valBytes, values, values, values*9)
			}
		} else if valBytes != values*8 {
			return 0, 0, false, nil, fmt.Errorf("v4 raw value column is %d bytes, want %d", valBytes, values*8)
		}
	}

	if need := idBytes + valBytes; cap(s.buf) < need {
		s.buf = make([]byte, need)
	} else {
		s.buf = s.buf[:need]
	}
	if _, err = io.ReadFull(br, s.buf); err != nil {
		return 0, 0, false, nil, err
	}
	crc := crc32.Update(0, castagnoli, header[4:30])
	crc = crc32.Update(crc, castagnoli, s.buf)
	if crc != wantCRC {
		return 0, 0, false, nil, fmt.Errorf("v4 frame CRC mismatch (want %#x, computed %#x): corrupted frame", wantCRC, crc)
	}
	if count == 0 {
		return job, step, active, nil, nil
	}

	b := GetBatch(width)
	b.IDs = slices.Grow(b.IDs, count)[:count]
	b.Vals = slices.Grow(b.Vals, count*width)[:count*width]
	idCol, valCol := s.buf[:idBytes], s.buf[idBytes:]
	if err := decodeDeltaIDs(idCol, b.IDs); err != nil {
		RecycleBatch(b)
		return 0, 0, false, nil, fmt.Errorf("v4 frame: %w", err)
	}
	if flags&v4FlagPackedVal != 0 {
		if err := decodePackedVals(valCol, b.Vals); err != nil {
			RecycleBatch(b)
			return 0, 0, false, nil, fmt.Errorf("v4 frame: %w", err)
		}
	} else {
		for i := range b.Vals {
			b.Vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(valCol[i*8:]))
		}
	}
	return job, step, active, b, nil
}
