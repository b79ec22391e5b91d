// Package ebv is the public API of this repository: a Go reproduction of
// "An Efficient and Balanced Graph Partition Algorithm for the
// Subgraph-Centric Programming Model on Large-scale Power-law Graphs"
// (Zhang et al., ICDCS 2021).
//
// It re-exports the supported surface of the internal packages so that
// downstream users never import internal/...:
//
//   - graph construction, IO and statistics (internal/graph),
//   - synthetic workload generators (internal/gen),
//   - the EBV partitioner — the paper's contribution (internal/core) —
//     and the five competitor partitioners,
//   - the subgraph-centric BSP engine with CC / PageRank / SSSP programs
//     (internal/bsp, internal/apps),
//   - the vertex-centric comparator engine (internal/pregel),
//   - the experiment harness that regenerates every table and figure
//     (internal/harness).
//
// Quick start — the Pipeline facade chains the paper's whole processing
// path (generate/load → partition → build subgraphs → run BSP program →
// metrics) in one cancellable call:
//
//	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
//	defer stop()
//	res, err := ebv.NewPipeline(
//		ebv.FromGenerator(func() (*ebv.Graph, error) {
//			return ebv.PowerLaw(ebv.PowerLawConfig{
//				NumVertices: 100000, NumEdges: 1000000, Eta: 2.2, Directed: true, Seed: 1,
//			})
//		}),
//		ebv.UsePartitioner(ebv.NewEBV()),
//		ebv.Subgraphs(16),
//	).Run(ctx, &ebv.CC{})
//	// handle err (ctx.Err() after a Ctrl-C)
//	fmt.Printf("replication factor: %.2f, %d supersteps\n",
//		res.Metrics.ReplicationFactor, res.BSP.Steps)
//
// To serve many programs over the same graph, prepare once and run many:
// Pipeline.Open performs load → partition → build a single time and
// returns a Session owning the subgraphs and a persistent transport mesh;
// every Session.Run is then a job paying only the execution cost, and Run
// is safe for concurrent callers (each job gets its own exchange, value
// width and step cap):
//
//	s, err := ebv.NewPipeline(
//		ebv.FromEdgeList("graph.txt"),
//		ebv.UsePartitioner(ebv.NewEBV()),
//		ebv.Subgraphs(16),
//	).Open(ctx)
//	// handle err
//	defer s.Close()
//	cc, err := s.Run(ctx, &ebv.CC{})                              // job 1
//	pr, err := s.Run(ctx, &ebv.PageRank{Iterations: 10})          // job 2
//	agg, err := s.Run(ctx, &ebv.Aggregate{Layers: 2}, ebv.WithValueWidth(8))
//	fmt.Println(s.Stats().SteadyStateRunTime())                   // amortized per-job latency
//
// The lower-level pieces remain available for custom wiring: every
// partitioner still exposes Partition(g, k), the context-aware ones add
// PartitionCtx, and the BSP engine runs via RunBSP/RunBSPCtx — or, in the
// prepare-once form, NewBSPDeployment over a transport deployment
// (NewMemDeployment / NewTCPMeshDeployment).
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package ebv

import (
	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/ginger"
	"ebv/internal/graph"
	"ebv/internal/harness"
	"ebv/internal/live"
	"ebv/internal/metis"
	"ebv/internal/ne"
	"ebv/internal/partition"
	"ebv/internal/pregel"
	"ebv/internal/transport"
)

// Graph substrate.
type (
	// Graph is an immutable directed graph (undirected inputs are stored
	// as mirrored edge pairs).
	Graph = graph.Graph
	// Edge is a directed edge.
	Edge = graph.Edge
	// VertexID identifies a vertex; ids are dense in [0, NumVertices).
	VertexID = graph.VertexID
	// GraphStats is the Table I statistics bundle.
	GraphStats = graph.Stats
	// EdgeWeights assigns a weight to every edge (nil = unit weights).
	EdgeWeights = graph.EdgeWeights
)

// Graph constructors and IO (see internal/graph for details).
var (
	NewGraph           = graph.New
	NewUndirectedGraph = graph.NewUndirected
	ReadEdgeList       = graph.ReadEdgeList
	// ReadEdgeListParallel is ReadEdgeList with an explicit parallelism
	// degree for the chunked parser (<= 0 selects GOMAXPROCS).
	ReadEdgeListParallel = graph.ReadEdgeListParallel
	WriteEdgeList        = graph.WriteEdgeList
	ReadBinaryGraph      = graph.ReadBinary
	WriteBinaryGraph     = graph.WriteBinary
	ComputeGraphStats    = graph.ComputeStats
	ReverseGraph         = graph.Reverse
	SimplifyGraph        = graph.Simplify
	InducedSubgraph      = graph.InducedSubgraph
	LargestComponent     = graph.LargestComponent
	UniformWeights       = graph.UniformWeights
	HashWeights          = graph.HashWeights
)

// Generators.
type (
	// PowerLawConfig parameterizes the Chung–Lu power-law generator.
	PowerLawConfig = gen.PowerLawConfig
	// RMATConfig parameterizes the R-MAT generator.
	RMATConfig = gen.RMATConfig
	// RoadConfig parameterizes the road-network generator.
	RoadConfig = gen.RoadConfig
	// ErdosRenyiConfig parameterizes the uniform random generator.
	ErdosRenyiConfig = gen.ErdosRenyiConfig
	// Analogue names one of the paper's four evaluation graphs.
	Analogue = gen.Analogue
)

// Generator entry points.
var (
	PowerLaw    = gen.PowerLaw
	RMAT        = gen.RMAT
	Road        = gen.Road
	ErdosRenyi  = gen.ErdosRenyi
	TableIGraph = gen.TableIGraph
)

// The four Table I analogue graphs.
const (
	USARoad     = gen.USARoad
	LiveJournal = gen.LiveJournal
	Twitter     = gen.Twitter
	Friendster  = gen.Friendster
)

// Partitioning.
type (
	// Partitioner assigns each edge to one of k subgraphs.
	Partitioner = partition.Partitioner
	// ContextPartitioner is a Partitioner with native cooperative
	// cancellation (PartitionCtx). All heavy algorithms here implement it.
	ContextPartitioner = partition.ContextPartitioner
	// Assignment is an edge-to-subgraph mapping.
	Assignment = partition.Assignment
	// PartitionMetrics bundles the paper's §III-C quality metrics.
	PartitionMetrics = partition.Metrics
	// EBV is the paper's partitioner (create with NewEBV).
	EBV = core.EBV
	// EBVOption configures NewEBV.
	EBVOption = core.Option
	// DBH is degree-based hashing.
	DBH = partition.DBH
	// CVC is the 2-D cartesian vertex-cut.
	CVC = partition.CVC
	// RandomPartitioner is the 1-D hash baseline.
	RandomPartitioner = partition.Random
	// NE is neighbor expansion.
	NE = ne.NE
	// Metis is the multilevel edge-cut baseline.
	Metis = metis.Metis
	// Ginger is the PowerLyra hybrid-cut + Fennel baseline.
	Ginger = ginger.Ginger
	// HDRF is the High-Degree-Replicated-First streaming baseline.
	HDRF = partition.HDRF
	// Hybrid is PowerLyra's plain hybrid-cut.
	Hybrid = partition.Hybrid
	// Fennel is the streaming edge-cut baseline.
	Fennel = partition.Fennel
	// StreamingEBV is the one-pass EBV variant (§VII future work).
	StreamingEBV = core.StreamingEBV
	// StreamingEBVConfig configures NewStreamingEBV.
	StreamingEBVConfig = core.StreamingConfig
	// EBVStream adapts StreamingEBV to the Partitioner interface.
	EBVStream = core.PartitionStream
	// ParallelEBV is the epoch-synchronized distributed EBV (§VII).
	ParallelEBV = core.ParallelEBV
)

// EBV construction and options (paper defaults: α = β = 1, sorted order).
var (
	NewEBV             = core.New
	NewStreamingEBV    = core.NewStreaming
	WithAlpha          = core.WithAlpha
	WithBeta           = core.WithBeta
	WithOrder          = core.WithOrder
	WithGrowthTracking = core.WithGrowthTracking
	ComputeMetrics     = partition.ComputeMetrics
	// PartitionWithContext runs any Partitioner under a context: native
	// cancellation when it implements ContextPartitioner, a before/after
	// context check otherwise.
	PartitionWithContext = partition.PartitionWithContext
	// ExpectedRandomReplication is the analytical random vertex-cut
	// replication model (PowerGraph's formula).
	ExpectedRandomReplication = partition.ExpectedRandomReplication
	WriteAssignmentText       = partition.WriteAssignmentText
	ReadAssignmentText        = partition.ReadAssignmentText
	WriteAssignmentBinary     = partition.WriteAssignmentBinary
	ReadAssignmentBinary      = partition.ReadAssignmentBinary
)

// EBV edge-processing orders (§IV-C, §V-D).
const (
	OrderSorted     = core.OrderSorted
	OrderInput      = core.OrderInput
	OrderSortedDesc = core.OrderSortedDesc
)

// Subgraph-centric BSP engine (§IV-B).
type (
	// Subgraph is one worker's local view of a partitioned graph.
	Subgraph = bsp.Subgraph
	// Program is a subgraph-centric application.
	Program = bsp.Program
	// WorkerProgram is a Program instance bound to one subgraph (needed to
	// implement Program outside this module).
	WorkerProgram = bsp.WorkerProgram
	// RunConfig tunes a BSP run.
	RunConfig = bsp.Config
	// RunResult is the outcome of a BSP run, with the §V-B breakdown.
	RunResult = bsp.Result
	// WorkerRunResult is one worker's outcome in a multi-process run.
	WorkerRunResult = bsp.WorkerResult
	// MessageBatch is a columnar batch of replica-synchronization
	// messages (vertex-id column + width-strided value column).
	MessageBatch = transport.MessageBatch
	// ValueMatrix is the width-aware columnar vertex-value store returned
	// by programs and runs (row per vertex, ValueWidth columns).
	ValueMatrix = graph.ValueMatrix
	// WorkerEnv is the per-run execution environment handed to
	// Program.NewWorker (value width + pooled batch allocator).
	WorkerEnv = bsp.Env
	// Transport moves message batches between workers.
	Transport = transport.Transport
	// MessageCombiner reduces duplicate-ID message rows at the sender and
	// receiver (bsp.Config.Combiner / the Combiner RunOption).
	MessageCombiner = transport.Combiner
	// MinCombiner / SumCombiner / ElementwiseSumCombiner are the built-in
	// combiners (elementwise min, scalar column-0 sum, whole-row sum).
	MinCombiner            = transport.MinCombiner
	SumCombiner            = transport.SumCombiner
	ElementwiseSumCombiner = transport.ElementwiseSumCombiner
	// MessageCounts reports a run's pre/post-combine message-row counts
	// (RunResult.MessageCounts).
	MessageCounts = bsp.MessageCounts
	// TransportDeployment is a long-lived transport mesh serving many
	// jobs through job-scoped exchanges (the transport half of Session).
	TransportDeployment = transport.Deployment
	// WireFormat selects the TCP mesh deployment's frame encoding
	// (WireV3 raw columns, WireV4 compressed columns — the default);
	// MeshOption configures NewTCPMeshDeployment.
	WireFormat = transport.WireFormat
	MeshOption = transport.MeshOption
	// BSPDeployment is the prepare-once/serve-many engine: built subgraphs
	// bound to a TransportDeployment, serving concurrent BSP jobs.
	BSPDeployment = bsp.Deployment
	// FaultInjector wraps a Transport to fail a chosen exchange — the
	// failure-injection hook used in tests.
	FaultInjector = transport.FaultInjector
)

// The wire formats of the TCP mesh deployment (see UseWireFormat and
// WithWireFormat).
const (
	WireV3 = transport.WireV3
	WireV4 = transport.WireV4
)

// BSP entry points and transports. The *Ctx forms take a context whose
// cancellation aborts the run (workers blocked in a collective exchange are
// released by closing the transports).
var (
	BuildSubgraphs         = bsp.BuildSubgraphs
	BuildSubgraphsWeighted = bsp.BuildSubgraphsWeighted
	// BuildSubgraphsParallel / BuildSubgraphsWeightedParallel take an
	// explicit parallelism degree for the per-part build passes (<= 0
	// selects GOMAXPROCS; the plain forms use GOMAXPROCS).
	BuildSubgraphsParallel         = bsp.BuildSubgraphsParallel
	BuildSubgraphsWeightedParallel = bsp.BuildSubgraphsWeightedParallel
	WriteSubgraph                  = bsp.WriteSubgraph
	ReadSubgraph                   = bsp.ReadSubgraph
	RunBSP                         = bsp.Run
	RunBSPCtx                      = bsp.RunCtx
	RunBSPWorkerCtx                = bsp.RunWorkerCtx
	NewMemTransport                = transport.NewMem
	// NewTCPWorker wires one worker's endpoint of a multi-process TCP
	// mesh (the transport RunBSPWorkerCtx runs over in ebv-worker's
	// standalone mode).
	NewTCPWorker = transport.NewTCPWorker
	// NewBSPDeployment binds built subgraphs to a transport deployment
	// (nil = in-memory) for prepare-once/serve-many execution; the Session
	// facade (Pipeline.Open) wraps it.
	NewBSPDeployment = bsp.NewDeployment
	// NewMemDeployment / NewTCPMeshDeployment build the job-mux transport
	// deployments backing sessions. WithWireFormat / WithWireQuantization
	// are NewTCPMeshDeployment's mesh options (wire encoding negotiation
	// and the opt-in lossy mantissa transform).
	NewMemDeployment     = transport.NewMemDeployment
	NewTCPMeshDeployment = transport.NewTCPMeshDeployment
	WithWireFormat       = transport.WithWireFormat
	WithWireQuantization = transport.WithWireQuantization
	// NewRunConfig builds a RunConfig from functional options
	// (WithMaxSteps, WithTransports, WithValueWidth,
	// WithReplicaVerification); the struct-literal form keeps working.
	NewRunConfig            = bsp.NewConfig
	WithMaxSteps            = bsp.WithMaxSteps
	WithTransports          = bsp.WithTransports
	WithValueWidth          = bsp.WithValueWidth
	WithReplicaVerification = bsp.WithReplicaVerification
	// Combiner sets an explicit per-job message combiner; AutoCombine
	// selects each program's declared one (CC/SSSP/WSSSP → min, PR → sum,
	// Aggregate → elementwise sum). Combining is semantically transparent:
	// results are byte-identical with it on or off, but duplicate-ID rows
	// are reduced before the wire and before the program's inbox
	// (RunResult.MessageCounts reports the reduction).
	Combiner    = bsp.WithCombiner
	AutoCombine = bsp.WithAutoCombine
	// NewValueMatrix allocates a zeroed rows×width value matrix.
	NewValueMatrix = graph.NewValueMatrix
	// GetMessageBatch / RecycleMessageBatch expose the pooled batch
	// allocator for custom Program implementations and transports.
	GetMessageBatch     = transport.GetBatch
	RecycleMessageBatch = transport.RecycleBatch
)

// Applications (§V-A) and sequential oracles.
type (
	// CC is subgraph-centric connected components.
	CC = apps.CC
	// PageRank is subgraph-centric PageRank.
	PageRank = apps.PageRank
	// SSSP is subgraph-centric single-source shortest paths.
	SSSP = apps.SSSP
	// Aggregate is subgraph-centric mean neighborhood aggregation — the
	// GNN message-passing kernel of the paper's §VII outlook.
	Aggregate = apps.Aggregate
	// WeightedSSSP is SSSP over positive edge weights (local Dijkstra).
	WeightedSSSP = apps.WeightedSSSP
)

// Sequential reference implementations (correctness oracles).
var (
	SequentialCC           = apps.SequentialCC
	SequentialPageRank     = apps.SequentialPageRank
	SequentialSSSP         = apps.SequentialSSSP
	SequentialAggregate    = apps.SequentialAggregate
	SequentialWeightedSSSP = apps.SequentialWeightedSSSP
)

// Live graphs (internal/live, DESIGN.md §13): Session.Apply streams edge
// mutations into an open session, assigning inserts online with a
// streaming vertex-cut policy and patching only the affected subgraphs.
type (
	// Mutation is one edge insert or delete, in global vertex ids.
	Mutation = live.Mutation
	// MutationOp is a Mutation's kind (OpInsert / OpDelete).
	MutationOp = live.Op
	// ApplyResult describes one committed mutation batch.
	ApplyResult = live.ApplyResult
	// LiveStats is the mutation layer's lifetime counters.
	LiveStats = live.Stats
	// MutationPolicyFunc scores parts for inserted edges (see
	// MutationPolicyByName for the built-ins).
	MutationPolicyFunc = live.Policy
	// DeltaPageRank is PageRank iterated to a fixed point with an
	// optional warm start from a previous job's values.
	DeltaPageRank = live.DeltaPageRank
)

// Mutation ops.
const (
	OpInsert = live.OpInsert
	OpDelete = live.OpDelete
)

// Live-graph entry points: the EBVL mutation-batch codec (the serve
// endpoint's binary body format), the streaming policy registry, the
// incremental-CC warm-start constructor and the rejected-batch sentinel.
var (
	EncodeMutations      = live.EncodeMutations
	DecodeMutations      = live.DecodeMutations
	MutationPolicyByName = live.PolicyByName
	NewDeltaCC           = live.NewDeltaCC
	ErrMutationRejected  = live.ErrRejected
)

// Vertex-centric comparator engine (Galois/Blogel stand-in, DESIGN.md §2).
type (
	// VertexProgram is a vertex-centric application.
	VertexProgram = pregel.VertexProgram
	// PregelConfig tunes a vertex-centric run.
	PregelConfig = pregel.Config
	// PregelResult is the outcome of a vertex-centric run.
	PregelResult = pregel.Result
)

// Vertex-centric entry points and programs.
var (
	RunPregel    = pregel.Run
	RunPregelCtx = pregel.RunCtx
)

// Vertex-centric application constructors.
type (
	// PregelCC is vertex-centric connected components.
	PregelCC = pregel.CC
	// PregelPageRank is vertex-centric PageRank.
	PregelPageRank = pregel.PageRank
	// PregelSSSP is vertex-centric SSSP.
	PregelSSSP = pregel.SSSP
)

// Experiment harness (regenerates every table and figure; see DESIGN.md §4).
type (
	// ExperimentOptions configures the harness (struct literal or
	// NewExperimentOptions with functional options).
	ExperimentOptions = harness.Options
	// ExperimentOption configures ExperimentOptions functionally.
	ExperimentOption = harness.Option
)

// Harness entry points. The *Ctx forms thread cancellation through every
// partition cell and BSP run of the experiment.
var (
	RunExperiment         = harness.Run
	RunExperimentCtx      = harness.RunCtx
	RunExperimentCSV      = harness.RunCSV
	RunExperimentCSVCtx   = harness.RunCSVCtx
	ExperimentNames       = harness.ExperimentNames
	PaperPartitioners     = harness.PaperPartitioners
	PartitionerByName     = harness.PartitionerByName
	NewExperimentOptions  = harness.NewOptions
	WithScale             = harness.WithScale
	WithSeed              = harness.WithSeed
	WithWorkers           = harness.WithWorkers
	WithPageRankIters     = harness.WithPageRankIters
	WithExtended          = harness.WithExtended
	WithRepeat            = harness.WithRepeat
	WithParallelism       = harness.WithParallelism
	WithExperimentContext = harness.WithContext
)
