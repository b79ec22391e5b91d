package bsp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ebv/internal/graph"
	"ebv/internal/transport"
)

// Program is a subgraph-centric application: it instantiates one
// WorkerProgram per subgraph.
type Program interface {
	// Name returns the application name ("CC", "PR", "SSSP").
	Name() string
	// NewWorker binds the program to one subgraph under the run's
	// execution environment (value width, batch allocator).
	NewWorker(sub *Subgraph, env Env) WorkerProgram
}

// Env is the per-run execution environment handed to NewWorker: the
// configured value width plus the pooled batch allocator programs draw
// outgoing batches from.
type Env struct {
	// ValueWidth is the number of float64 values per vertex (>= 1).
	ValueWidth int
}

// NewBatch returns an empty pooled outgoing batch of the run's width.
// Batches handed to the engine via Superstep's out slice are recycled by
// the engine/transport after delivery.
//
//ebv:owns the program hands the batch back via Superstep's out slice; the engine recycles it after delivery
func (e Env) NewBatch() *transport.MessageBatch {
	return transport.GetBatch(e.ValueWidth)
}

// NewValues returns a zeroed rows×ValueWidth value matrix (the shape
// Values must return for a subgraph with rows local vertices).
func (e Env) NewValues(rows int) *graph.ValueMatrix {
	return graph.NewValueMatrix(rows, e.ValueWidth)
}

// WorkerProgram is a program instance bound to one worker/subgraph.
type WorkerProgram interface {
	// Superstep runs the computation stage: it consumes the message batch
	// delivered at the end of the previous superstep and returns outgoing
	// batches indexed by destination worker (nil entries mean no messages;
	// out may be shorter than the worker count). Returning active=false
	// votes to halt; the engine keeps every worker in lock-step until no
	// worker is active and no messages were sent anywhere in the step.
	//
	// Ownership: in is only valid during the call — the engine recycles
	// it afterwards, and under the poison debug mode (EBV_DEBUG, or
	// transport.SetPoisonRecycled) retained batches are scribbled with
	// NaNs so retention bugs fail loudly. Batches placed in out transfer
	// to the engine; allocate them with Env.NewBatch and never reuse one
	// across slots or steps.
	Superstep(step int, in *transport.MessageBatch) (out []*transport.MessageBatch, active bool)
	// Values returns the final value matrix of the local vertices: one
	// row per local vertex (local index order), Env.ValueWidth columns.
	Values() *graph.ValueMatrix
}

// ErrMaxSteps reports that a run hit the superstep safety cap.
var ErrMaxSteps = errors.New("bsp: exceeded max supersteps without converging")

// CombinerProvider is implemented by Programs that declare the natural
// combiner of their messages (CC/SSSP/WeightedSSSP → min, PageRank → sum,
// Aggregate → elementwise sum). Config.AutoCombine uses it; an explicit
// Config.Combiner overrides it.
type CombinerProvider interface {
	// MessageCombiner returns the combiner that may reduce this program's
	// messages without changing its results (nil = none).
	MessageCombiner() transport.Combiner
}

// Config tunes a Run. The zero value selects the defaults; it can be
// populated either as a struct literal (the legacy form, still supported)
// or with the functional options accepted by NewConfig.
type Config struct {
	// Transports supplies one transport per worker (e.g. a TCP mesh). Nil
	// selects a shared in-memory transport. If exactly one transport is
	// given and it serves all workers (the Mem case), it is shared.
	Transports []transport.Transport
	// MaxSteps is the superstep safety cap (default 100000).
	MaxSteps int
	// ValueWidth is the number of float64 values carried per vertex and
	// per message (default 1 — the paper's scalar applications). Wider
	// runs move feature vectors through the same columnar batches.
	ValueWidth int
	// VerifyReplicaAgreement makes Run fail if, at termination, replicas
	// of the same vertex disagree. Tests enable it; benches do not pay
	// for it.
	VerifyReplicaAgreement bool
	// Combiner, when non-nil, reduces duplicate-ID message rows sender-side
	// (inside each outgoing batch, before the exchange) and receiver-side
	// (while merging the per-source inboxes). See transport.Combiner for
	// the exactness contract; Result.MessageCounts reports the reduction.
	Combiner transport.Combiner
	// AutoCombine selects the program's declared combiner (CombinerProvider)
	// when Combiner is nil. Programs without one run uncombined.
	AutoCombine bool
	// CheckpointEvery, with a CheckpointSink, cuts a resumable checkpoint
	// at every superstep barrier it divides (before supersteps N, 2N, ...)
	// while the run is still active. The program's workers must implement
	// Resumable. 0 disables checkpointing.
	CheckpointEvery int
	// CheckpointSink receives each cut checkpoint. cp.State is owned by the
	// sink; cp.InboxIDs/InboxVals alias engine memory and are only valid
	// during the call — a sink that retains the inbox must copy it. A sink
	// error fails the worker (a checkpoint that cannot be written is a
	// fault, not a warning: failover would silently lose progress).
	CheckpointSink func(worker int, cp *Checkpoint) error
	// Resume starts the run from per-worker checkpoints instead of step 0:
	// one non-nil entry per worker, all cut at the same Step (the aligned
	// epochs CheckpointEvery produces). Nil (or empty) starts fresh.
	Resume []*Checkpoint
}

// Option configures a Config functionally.
type Option func(*Config)

// NewConfig builds a Config from functional options.
func NewConfig(opts ...Option) Config {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithMaxSteps sets the superstep safety cap (<= 0 selects the default).
func WithMaxSteps(n int) Option {
	return func(c *Config) { c.MaxSteps = n }
}

// WithTransports supplies one transport per worker; a single transport
// serving all workers (the Mem case) is shared.
func WithTransports(ts ...transport.Transport) Option {
	return func(c *Config) { c.Transports = ts }
}

// WithValueWidth sets the per-vertex value width (0 selects the default
// of 1; widths < 0 fail Run with a clear error).
func WithValueWidth(n int) Option {
	return func(c *Config) { c.ValueWidth = n }
}

// WithReplicaVerification makes Run fail if replicas of the same vertex
// disagree at termination.
func WithReplicaVerification(on bool) Option {
	return func(c *Config) { c.VerifyReplicaAgreement = on }
}

// WithCombiner sets an explicit message combiner (nil clears it; see
// Config.Combiner).
func WithCombiner(c transport.Combiner) Option {
	return func(cfg *Config) { cfg.Combiner = c }
}

// WithAutoCombine makes the run use the program's declared combiner, if
// any (see Config.AutoCombine).
func WithAutoCombine(on bool) Option {
	return func(c *Config) { c.AutoCombine = on }
}

// WithCheckpoints cuts a resumable checkpoint into sink at every superstep
// barrier that every divides (see Config.CheckpointEvery/CheckpointSink).
func WithCheckpoints(every int, sink func(worker int, cp *Checkpoint) error) Option {
	return func(c *Config) {
		c.CheckpointEvery = every
		c.CheckpointSink = sink
	}
}

// WithResume starts the run from per-worker checkpoints (one per worker,
// all at the same step; see Config.Resume).
func WithResume(cps []*Checkpoint) Option {
	return func(c *Config) { c.Resume = cps }
}

// combiner resolves the run's message combiner for prog: an explicit
// Config.Combiner wins; otherwise AutoCombine consults the program.
func (c Config) combiner(prog Program) transport.Combiner {
	if c.Combiner != nil {
		return c.Combiner
	}
	if c.AutoCombine {
		if cp, ok := prog.(CombinerProvider); ok {
			return cp.MessageCombiner()
		}
	}
	return nil
}

// maxSteps resolves the superstep safety cap (<= 0 selects the default),
// shared by every entry point so one-shot runs, distributed workers and
// deployment jobs agree on the cap.
func (c Config) maxSteps() int {
	if c.MaxSteps <= 0 {
		return 100000
	}
	return c.MaxSteps
}

// valueWidth resolves the configured width (0 = default 1) or errors on a
// width no transport can carry, so misconfiguration fails identically on
// Mem and TCP instead of surfacing as frame corruption on one of them.
func (c Config) valueWidth() (int, error) {
	switch {
	case c.ValueWidth == 0:
		return 1, nil
	case c.ValueWidth < 1:
		return 0, fmt.Errorf("bsp: value width %d invalid: must be >= 1 (or 0 for the default of 1)",
			c.ValueWidth)
	case c.ValueWidth > transport.MaxValueWidth:
		return 0, fmt.Errorf("bsp: value width %d exceeds the transport cap %d",
			c.ValueWidth, transport.MaxValueWidth)
	default:
		return c.ValueWidth, nil
	}
}

// WorkerStats records a worker's per-superstep instrumentation.
type WorkerStats struct {
	// Comp[k], Comm[k], Sync[k] are the stage durations of superstep k
	// (§IV-B stages). Comm excludes barrier wait; Sync is the wait.
	Comp []time.Duration
	Comm []time.Duration
	Sync []time.Duration
	// Sent[k] counts messages sent in superstep k to OTHER workers —
	// rows actually handed to the exchange, i.e. after sender-side
	// combining (equal to Emitted[k] when no combiner is configured).
	Sent []int64
	// Emitted[k] counts the rows the program produced for other workers
	// in superstep k, before sender-side combining.
	Emitted []int64
	// Received[k] counts messages received from other workers — rows as
	// they crossed the exchange, before receiver-side combining.
	Received []int64
	// Delivered[k] counts the rows from other workers that survived
	// receiver-side combining into superstep k+1's inbox (equal to
	// Received[k] when no combiner is configured).
	Delivered []int64
}

// TotalSent sums messages sent across supersteps (post sender-side
// combining — the wire count).
func (w *WorkerStats) TotalSent() int64 { return sumInt64(w.Sent) }

// TotalEmitted sums program-emitted cross-worker rows across supersteps
// (pre-combining).
func (w *WorkerStats) TotalEmitted() int64 { return sumInt64(w.Emitted) }

// TotalDelivered sums the cross-worker rows that survived receiver-side
// combining across supersteps.
func (w *WorkerStats) TotalDelivered() int64 { return sumInt64(w.Delivered) }

func sumInt64(xs []int64) int64 {
	var total int64
	for _, x := range xs {
		total += x
	}
	return total
}

// TotalComp sums computation time across supersteps.
func (w *WorkerStats) TotalComp() time.Duration { return sumDur(w.Comp) }

// TotalComm sums communication time across supersteps.
func (w *WorkerStats) TotalComm() time.Duration { return sumDur(w.Comm) }

// TotalSync sums synchronization wait across supersteps.
func (w *WorkerStats) TotalSync() time.Duration { return sumDur(w.Sync) }

func sumDur(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

// Result is the outcome of a Run.
type Result struct {
	// Steps is the number of supersteps executed.
	Steps int
	// Workers holds per-worker instrumentation, indexed by worker id.
	Workers []WorkerStats
	// Values holds the final value rows, dense over the global vertex id
	// space (row v = vertex v, Width = the run's ValueWidth). Rows of
	// vertices no subgraph covers stay zero; Covered tells them apart.
	Values *graph.ValueMatrix
	// Covered[v] reports whether some subgraph covers vertex v (vertices
	// with no assigned edge are uncovered and have no computed value).
	Covered []bool
	// WallTime is the end-to-end execution time (excluding partitioning
	// and subgraph construction, matching the paper's methodology).
	WallTime time.Duration
	// Epoch identifies the graph snapshot the job ran on: 0 for a frozen
	// deployment, incremented per Deployment.Swap when a live mutation
	// layer is attached (internal/live).
	Epoch uint64
}

// Value returns vertex v's scalar value (column 0) and whether v was
// covered by the run — the width-1 accessor matching the scalar era.
func (r *Result) Value(v graph.VertexID) (float64, bool) {
	row, ok := r.Row(v)
	if !ok {
		return 0, false
	}
	return row[0], true
}

// Row returns vertex v's value row (aliasing the result matrix) and
// whether v was covered.
func (r *Result) Row(v graph.VertexID) ([]float64, bool) {
	if int(v) >= len(r.Covered) || !r.Covered[v] {
		return nil, false
	}
	return r.Values.Row(int(v)), true
}

// Run partitions nothing: it executes prog over the given subgraphs (built
// with BuildSubgraphs) until global quiescence.
func Run(subs []*Subgraph, prog Program, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), subs, prog, cfg) //ebv:nolint ctxflow ctx-less compat wrapper; RunCtx is the cancellable entry point
}

// RunCtx is Run with cancellation: each worker polls ctx at every superstep
// boundary, and cancellation additionally closes the transports so workers
// blocked in a collective exchange are released immediately — a canceled
// run returns ctx.Err() within one superstep of wall time, never a partial
// result. The transports are unusable afterwards (a canceled run is over).
func RunCtx(ctx context.Context, subs []*Subgraph, prog Program, cfg Config) (*Result, error) {
	k := len(subs)
	if k == 0 {
		return nil, errors.New("bsp: no subgraphs")
	}
	width, err := cfg.valueWidth()
	if err != nil {
		return nil, err
	}
	transports, cleanup, err := resolveTransports(cfg, k)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return executeJob(ctx, subs, prog, transports, cfg, width)
}

// resumeFor validates cfg.Resume for a k-worker run at the given width:
// either empty (fresh start) or one checkpoint per worker, all cut at the
// same superstep with well-shaped inboxes.
func (c Config) resumeFor(k, width int) ([]*Checkpoint, error) {
	if len(c.Resume) == 0 {
		return nil, nil
	}
	if len(c.Resume) != k {
		return nil, fmt.Errorf("bsp: %d resume checkpoints for %d workers", len(c.Resume), k)
	}
	for w, cp := range c.Resume {
		if cp == nil || cp.State == nil {
			return nil, fmt.Errorf("bsp: resume checkpoint for worker %d missing", w)
		}
		if cp.Step < 1 {
			return nil, fmt.Errorf("bsp: worker %d resume step %d invalid (checkpoints start at step 1)", w, cp.Step)
		}
		if cp.Step != c.Resume[0].Step {
			return nil, fmt.Errorf("bsp: resume steps disagree: worker 0 at %d, worker %d at %d",
				c.Resume[0].Step, w, cp.Step)
		}
		if err := cp.CheckInbox(width); err != nil {
			return nil, fmt.Errorf("bsp: worker %d: %w", w, err)
		}
	}
	return c.Resume, nil
}

// executeJob runs one job — prog over subs, one transport per worker —
// until global quiescence. It is the shared core of RunCtx (which owns a
// one-shot transport set) and Deployment.Run (which owns job-scoped views
// of a persistent mesh): the transports passed in are assumed to be this
// job's to tear down, and are closed on cancellation or worker failure to
// release peers blocked in the collective exchange. Concurrent executeJob
// calls over the same subgraphs are safe — subgraphs are immutable at run
// time and all per-job state lives here.
func executeJob(ctx context.Context, subs []*Subgraph, prog Program,
	transports []transport.Transport, cfg Config, width int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k := len(subs)
	resume, err := cfg.resumeFor(k, width)
	if err != nil {
		return nil, err
	}

	// workerCtx is canceled when the caller's ctx is canceled OR when any
	// worker fails mid-run (a bad batch, a transport fault): closing every
	// transport is the only way to release peers blocked in a collective
	// exchange, so a single worker's error must not deadlock the barrier.
	// runWorker maps the induced transport errors back to ctx.Err().
	workerCtx, failRun := context.WithCancel(ctx)
	defer failRun()
	stopWatch := context.AfterFunc(workerCtx, func() {
		for _, tr := range transports {
			_ = tr.Close()
		}
	})
	defer stopWatch()

	res := &Result{Workers: make([]WorkerStats, k)}
	workerValues := make([]*graph.ValueMatrix, k)
	errs := make([]error, k)
	steps := make([]int, k)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		spec := workerSpec{
			maxSteps:  cfg.maxSteps(),
			width:     width,
			comb:      cfg.combiner(prog),
			ckptEvery: cfg.CheckpointEvery,
			sink:      cfg.CheckpointSink,
		}
		if resume != nil {
			spec.resume = resume[w]
		}
		wg.Add(1)
		go func(w int, spec workerSpec) {
			defer wg.Done()
			steps[w], workerValues[w], errs[w] =
				runWorker(workerCtx, w, subs[w], prog, transports[w], spec, &res.Workers[w])
			if errs[w] != nil {
				failRun() // release peers blocked in the exchange
			}
		}(w, spec)
	}
	wg.Wait()
	res.WallTime = time.Since(start)

	// Report the caller's cancellation as such; otherwise surface the
	// first root-cause error (peers released by failRun report the induced
	// context.Canceled, which is noise, not the cause).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var firstErr error
	for w := 0; w < k; w++ {
		if errs[w] == nil {
			continue
		}
		if firstErr == nil || errors.Is(firstErr, context.Canceled) && !errors.Is(errs[w], context.Canceled) {
			firstErr = fmt.Errorf("bsp: worker %d: %w", w, errs[w])
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res.Steps = steps[0]

	// Assemble the global value matrix from the per-worker matrices; every
	// replica writes its row, optionally verified against the previous
	// replica's (a strided row compare).
	res.Values, res.Covered, err = AssembleValues(subs, workerValues, width, cfg.VerifyReplicaAgreement)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// resolveTransports normalizes cfg.Transports: nil → one shared Mem.
func resolveTransports(cfg Config, k int) ([]transport.Transport, func(), error) {
	if len(cfg.Transports) == 0 {
		mem, err := transport.NewMem(k)
		if err != nil {
			return nil, nil, err
		}
		ts := make([]transport.Transport, k)
		for i := range ts {
			ts[i] = mem
		}
		return ts, func() { _ = mem.Close() }, nil
	}
	if len(cfg.Transports) == 1 && k > 1 {
		ts := make([]transport.Transport, k)
		for i := range ts {
			ts[i] = cfg.Transports[0]
		}
		return ts, func() {}, nil
	}
	if len(cfg.Transports) != k {
		return nil, nil, fmt.Errorf("bsp: %d transports for %d workers", len(cfg.Transports), k)
	}
	return cfg.Transports, func() {}, nil
}

// runWorker is the per-worker superstep loop. It returns the executed
// superstep count (the absolute step counter — a resumed worker reports
// the same count the uninterrupted run would) and the final local value
// matrix.
func runWorker(ctx context.Context, w int, sub *Subgraph, prog Program, tr transport.Transport,
	spec workerSpec, stats *WorkerStats) (int, *graph.ValueMatrix, error) {
	maxSteps, width, comb := spec.maxSteps, spec.width, spec.comb
	wp := prog.NewWorker(sub, Env{ValueWidth: width})
	// Checkpointing and resuming both need the program's snapshot contract.
	var resumable Resumable
	if spec.checkpointing() || spec.resume != nil {
		r, ok := wp.(Resumable)
		if !ok {
			return 0, nil, errNotResumable(prog)
		}
		resumable = r
	}
	// The combiner's per-worker scratch lives for the whole run. The
	// sender-side coalesce of each outgoing batch probes a scratch index —
	// dense O(1) probes when the global id space is within 16× the local
	// vertex count (the LocalOf density gate), a map otherwise. The
	// receiver-side inbox merge is a sorted-run merge (MergeScratch) and
	// needs no index, so the dense index's capacity cutoff — ids beyond it
	// pass through the coalesce uncombined — can no longer leave duplicate
	// rows in the inbox.
	var combIdx *transport.CombineIndex
	var mergeScratch *transport.MergeScratch
	if comb != nil {
		denseSize := 0
		if locals := sub.NumLocalVertices(); locals > 0 && sub.NumGlobalVertices <= 16*locals {
			denseSize = sub.NumGlobalVertices
		}
		combIdx = transport.NewCombineIndex(denseSize)
		mergeScratch = new(transport.MergeScratch)
	}
	// Combining is adaptive on both sides of the exchange: after
	// senderProbeSteps consecutive steps in which a real duplicate scan
	// (at least senderProbeMinRows rows — steps moving fewer rows are no
	// evidence) removed nothing (the replica-sync apps' unique-ID
	// batches), that side's work is skipped for the rest of the run. On
	// the sender that is the per-batch coalesce scan; on the receiver it
	// is the sorted-run inbox merge, which degrades to a k-way scan with
	// nothing to fold when sources carry disjoint ids — plain
	// concatenation is strictly better there, and skipping keeps
	// `-combine=auto` within noise of plain append on the apps combining
	// cannot help.
	const (
		senderProbeSteps   = 2
		senderProbeMinRows = 8
	)
	senderCombine := comb != nil
	receiverCombine := comb != nil
	dupFreeSteps := 0
	foldFreeSteps := 0
	// The inbox batch concatenates the step's incoming batches; it cycles
	// through the pool every step, so the poison debug mode scribbles it
	// between supersteps (enforcing the "in is only valid during the
	// call" contract) at zero steady-state allocation cost. The deferred
	// recycle covers every return path (error paths deliberately strand
	// any other in-flight batches to the GC — the run is over and the
	// pool is best-effort).
	inbox := transport.GetBatch(width)
	defer func() { transport.RecycleBatch(inbox) }()
	startStep := 0
	if cp := spec.resume; cp != nil {
		// Rewind to the checkpointed barrier: program state first, then the
		// inbox the exchange had delivered for cp.Step.
		if err := resumable.RestoreState(cp.Step, cp.State); err != nil {
			return 0, nil, fmt.Errorf("restore checkpoint at step %d: %w", cp.Step, err)
		}
		inbox.IDs = append(inbox.IDs, cp.InboxIDs...)
		inbox.Vals = append(inbox.Vals, cp.InboxVals...)
		startStep = cp.Step
	}
	for step := startStep; step < maxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return step, nil, err
		}
		t0 := time.Now()
		out, active := wp.Superstep(step, inbox)
		comp := time.Since(t0)

		var emitted int64
		selfPending := false
		for dst, batch := range out {
			if err := batch.Check(width); err != nil {
				return step, nil, fmt.Errorf("superstep %d outbox %d: %w", step, dst, err)
			}
			if dst != w {
				emitted += int64(batch.Len())
			} else if batch.Len() > 0 {
				selfPending = true
			}
		}
		// A worker with outbound messages must stay active so receivers
		// get a superstep to process them. (Decided pre-combine, though it
		// cannot differ: coalescing never empties a non-empty batch.)
		effectiveActive := active || emitted > 0 || selfPending

		// Sender-side combining: coalesce duplicate-ID rows inside each
		// outgoing batch so only the reduced rows reach the exchange.
		sent := emitted
		if senderCombine && (emitted > 0 || selfPending) {
			removed, scannedRows := 0, 0
			sent = 0
			for dst, batch := range out {
				if batch.Len() > 1 {
					scannedRows += batch.Len()
					removed += batch.Coalesce(comb, combIdx)
				}
				if dst != w {
					sent += int64(batch.Len())
				}
			}
			if removed > 0 {
				dupFreeSteps = 0
			} else if scannedRows >= senderProbeMinRows {
				if dupFreeSteps++; dupFreeSteps >= senderProbeSteps {
					senderCombine = false
				}
			}
		}

		t1 := time.Now()
		ex, err := tr.Exchange(w, step, out, effectiveActive)
		if err != nil {
			// A cancellation closes the transport under us; report the
			// cancellation, not the induced transport error.
			if ctxErr := ctx.Err(); ctxErr != nil {
				return step, nil, ctxErr
			}
			return step, nil, fmt.Errorf("exchange step %d: %w", step, err)
		}
		commsync := time.Since(t1)
		comm := commsync - ex.Wait
		if comm < 0 {
			comm = 0
		}

		// Delivery: build the next inbox from the incoming batches and
		// recycle them. Without a combiner the batches concatenate with
		// columnar bulk appends; with one, a sorted-run merge folds
		// duplicate-ID rows across sources — per vertex, rows still fold
		// in (source, row) arrival order, so results stay byte-identical
		// to the uncombined scan (the inbox merely ends id-sorted instead
		// of arrival-ordered, which no program may depend on).
		transport.RecycleBatch(inbox)
		inbox = transport.GetBatch(width)
		var received, delivered int64
		if receiverCombine {
			if err := inbox.MergeBatchesCombining(ex.In, comb, mergeScratch); err != nil {
				return step, nil, fmt.Errorf("superstep %d inbox merge: %w", step, err)
			}
			var folded int64
			for src, batch := range ex.In {
				if src != w {
					received += int64(batch.Len())
					delivered += int64(mergeScratch.Appended[src])
				}
				folded += int64(batch.Len() - mergeScratch.Appended[src])
				transport.RecycleBatch(batch)
			}
			if folded > 0 {
				foldFreeSteps = 0
			} else if inbox.Len() >= senderProbeMinRows {
				if foldFreeSteps++; foldFreeSteps >= senderProbeSteps {
					receiverCombine = false
				}
			}
		} else {
			for src, batch := range ex.In {
				if batch == nil {
					continue
				}
				if err := batch.Check(width); err != nil {
					return step, nil, fmt.Errorf("superstep %d from worker %d: %w", step, src, err)
				}
				inbox.AppendBatch(batch)
				if src != w {
					received += int64(batch.Len())
					delivered += int64(batch.Len())
				}
				transport.RecycleBatch(batch)
			}
		}

		stats.Comp = append(stats.Comp, comp)
		stats.Comm = append(stats.Comm, comm)
		stats.Sync = append(stats.Sync, ex.Wait)
		stats.Sent = append(stats.Sent, sent)
		stats.Emitted = append(stats.Emitted, emitted)
		stats.Received = append(stats.Received, received)
		stats.Delivered = append(stats.Delivered, delivered)

		// Checkpoint cut: the run is still active and the next step is an
		// epoch boundary. Both inputs are globally agreed (the step counter
		// is lock-step, AnyActive is the exchange's collective OR), so every
		// worker cuts exactly the same epochs — see Checkpoint.
		if ex.AnyActive && spec.checkpointing() && (step+1)%spec.ckptEvery == 0 {
			cp := &Checkpoint{
				Step:      step + 1,
				State:     resumable.SnapshotState(),
				InboxIDs:  inbox.IDs,
				InboxVals: inbox.Vals,
			}
			if err := spec.sink(w, cp); err != nil {
				return step + 1, nil, fmt.Errorf("checkpoint at step %d: %w", step+1, err)
			}
		}

		if !ex.AnyActive {
			vals := wp.Values()
			if vals == nil {
				return step + 1, nil, errors.New("program returned nil values")
			}
			if vals.Width != width {
				return step + 1, nil, fmt.Errorf("program returned width-%d values for a width-%d run",
					vals.Width, width)
			}
			if err := vals.CheckShape(sub.NumLocalVertices()); err != nil {
				return step + 1, nil, err
			}
			return step + 1, vals, nil
		}
	}
	return maxSteps, nil, ErrMaxSteps
}

// WorkerResult is the outcome of a single worker's participation in a
// multi-process run (RunWorkerCtx).
type WorkerResult struct {
	// Steps is the number of supersteps executed.
	Steps int
	// Values holds the final value matrix of the local vertices (one row
	// per local index).
	Values *graph.ValueMatrix
	// Stats is this worker's instrumentation.
	Stats WorkerStats
	// WallTime is this worker's end-to-end time.
	WallTime time.Duration
}

// RunWorkerCtx executes ONE worker of a distributed computation over the
// given transport (typically a per-process transport.NewTCPWorker
// endpoint); the peer workers run in other processes. It blocks until
// global quiescence. Only cfg.MaxSteps, cfg.ValueWidth and the combiner
// settings are honored (the transport is explicit, and replica
// verification needs the global view). Every worker of a distributed run
// must agree on the combiner configuration — results stay correct either
// way, but message counts and batch contents differ. ctx is polled at
// every superstep boundary, and cancellation closes the transport so a
// worker blocked mid-exchange tears down immediately (its peers observe
// the closed connections and fail their own exchanges — the distributed
// analogue of a crashed process).
func RunWorkerCtx(ctx context.Context, sub *Subgraph, prog Program, tr transport.Transport, cfg Config) (*WorkerResult, error) {
	return RunWorkerFromCtx(ctx, sub, prog, tr, cfg, nil)
}

// RunWorkerFromCtx is RunWorkerCtx resuming from a checkpoint: a non-nil
// cp starts the worker at cp.Step with the checkpointed program state and
// inbox instead of step 0. Every worker of the run must resume from the
// same epoch (the cluster coordinator's restore selection guarantees it);
// cfg.CheckpointEvery/CheckpointSink keep cutting new checkpoints on the
// resumed run. cfg.Resume is ignored here — it indexes checkpoints by
// worker for whole-job entry points, while this worker resumes from its
// own.
func RunWorkerFromCtx(ctx context.Context, sub *Subgraph, prog Program, tr transport.Transport, cfg Config, cp *Checkpoint) (*WorkerResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sub == nil {
		return nil, errors.New("bsp: nil subgraph")
	}
	if tr.NumWorkers() != sub.NumWorkers {
		return nil, fmt.Errorf("bsp: transport has %d workers, subgraph expects %d",
			tr.NumWorkers(), sub.NumWorkers)
	}
	width, err := cfg.valueWidth()
	if err != nil {
		return nil, err
	}
	if cp != nil {
		if cp.State == nil || cp.Step < 1 {
			return nil, fmt.Errorf("bsp: worker %d: malformed resume checkpoint", sub.Part)
		}
		if err := cp.CheckInbox(width); err != nil {
			return nil, fmt.Errorf("bsp: worker %d: %w", sub.Part, err)
		}
	}
	stopWatch := context.AfterFunc(ctx, func() { _ = tr.Close() })
	defer stopWatch()
	res := &WorkerResult{}
	start := time.Now()
	spec := workerSpec{
		maxSteps:  cfg.maxSteps(),
		width:     width,
		comb:      cfg.combiner(prog),
		ckptEvery: cfg.CheckpointEvery,
		sink:      cfg.CheckpointSink,
		resume:    cp,
	}
	steps, values, err := runWorker(ctx, sub.Part, sub, prog, tr, spec, &res.Stats)
	if err != nil {
		// Mirror RunCtx's failRun: a local validation error (bad batch,
		// mis-shaped values) leaves the transport healthy, so close it —
		// remote peers observe the closed connections and fail their own
		// exchanges instead of blocking forever (the crashed-process
		// analogue this entry point documents).
		_ = tr.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("bsp: worker %d: %w", sub.Part, err)
	}
	res.Steps = steps
	res.Values = values
	res.WallTime = time.Since(start)
	return res, nil
}
