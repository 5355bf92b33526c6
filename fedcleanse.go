// Package fedcleanse is a Go implementation of the post-training backdoor
// defense for federated learning from "Toward Cleansing Backdoored Neural
// Networks in Federated Learning" (Wu, Yang, Zhu, Mitra — ICDCS 2022),
// together with everything needed to study it end to end: a from-scratch
// CNN training stack, a federated-learning simulator with backdoor attacks
// (BadNets pixel patterns, model replacement, DBA), Byzantine-robust
// aggregation baselines, and a Neural Cleanse baseline.
//
// The defense (Algorithm 1 of the paper) cleans a trained global model in
// three steps:
//
//  1. Federated pruning — clients report neuron-dormancy ranks (RAP) or
//     prune votes (MVP) computed from local activations; the server prunes
//     dormant neurons until validation accuracy would drop.
//  2. Federated fine-tuning (optional) — a few FedAvg rounds recover the
//     benign accuracy lost to pruning.
//  3. Adjusting extreme weights — weights outside μ ± Δ·σ are zeroed with
//     Δ decreased under a validation-accuracy guard.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	s := fedcleanse.MNISTScenario(9, 2) // backdoor: 9 predicted as 2
//	t := fedcleanse.Run(s)              // federated training under attack
//	model, report := t.Defend(fedcleanse.DefaultPipelineConfig())
//
// This package is a facade over the implementation packages in internal/;
// it re-exports the stable API surface.
package fedcleanse

import (
	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/neuralcleanse"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/robust"
	"github.com/fedcleanse/fedcleanse/internal/transport"
)

// Observability (DESIGN.md §11). Every library path is instrumented
// against a process-wide nop logger and a shared metrics registry; both
// are inert until a caller opts in, and neither influences model
// arithmetic, worker scheduling, or RNG draws.
type (
	// MetricsRegistry is a set of named atomic counters, gauges and
	// fixed-bucket histograms whose warm operations allocate nothing.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = obs.Snapshot
	// OpsServer is a running /metrics + /healthz + pprof HTTP endpoint.
	OpsServer = obs.OpsServer
)

var (
	// Metrics is the registry all instrumented library paths record into.
	Metrics = obs.Default
	// NewMetricsRegistry builds an empty private registry.
	NewMetricsRegistry = obs.NewRegistry
	// SetLogger installs the process-wide structured event logger
	// (nil restores the silent default).
	SetLogger = obs.SetLogger
	// ServeOps starts the ops HTTP endpoint over a registry.
	ServeOps = obs.ServeOps
)

// Parallel execution knobs. Simulation and kernel hot paths fan out over a
// bounded set of workers; results are bit-identical for any worker count
// (DESIGN.md §7). The count defaults to GOMAXPROCS and can be pinned via
// SetWorkers or the FEDCLEANSE_WORKERS environment variable.
var (
	// Workers reports the effective worker count.
	Workers = parallel.Workers
	// SetWorkers pins the worker count process-wide (<= 0 restores the
	// automatic default) and returns the previous override.
	SetWorkers = parallel.SetWorkers
)

// Model and training stack.
type (
	// Model is a feed-forward neural network (a stack of layers).
	Model = nn.Sequential
	// ModelInput is the per-sample input geometry of a model.
	ModelInput = nn.Input
	// SGD is the local optimizer used by federated clients.
	SGD = nn.SGD
	// Backend selects the numeric precision of model arithmetic
	// (Model.SetBackend); aggregation and checkpoints are float64 either
	// way. See DESIGN.md §13.
	Backend = nn.Backend
)

// Numeric backends and their flag parser.
const (
	// Float64 is the canonical reference arithmetic (the default).
	Float64 = nn.Float64
	// Float32 runs layer kernels in float32 for roughly halved memory
	// traffic; converts at the model boundary.
	Float32 = nn.Float32
)

// ParseBackend parses a -backend flag spelling ("float64" or "float32").
var ParseBackend = nn.ParseBackend

// Report precision (DESIGN.md §14). Clients can record defense-report
// activations as affine-quantized int8 instead of float64; quantization
// is monotonic, so prune ordering — all the defense consumes — is
// preserved exactly (pinned by the MNIST parity test).
type (
	// ReportQuant selects the activation-recording precision of defense
	// reports (Scenario.ReportQuant, -report-quant); the zero value is
	// the float64 reference.
	ReportQuant = metrics.ReportQuant
	// QuantActs is an affine (scale, zero-point) int8 encoding of a
	// per-unit activation vector.
	QuantActs = metrics.QuantActs
)

// Report precisions and their flag parser.
const (
	// ReportFloat64 records report activations at full precision.
	ReportFloat64 = metrics.ReportFloat64
	// ReportInt8 records report activations as affine-quantized int8,
	// shrinking report payloads and wire traffic.
	ReportInt8 = metrics.ReportInt8
)

var (
	// ParseReportQuant parses a -report-quant flag spelling ("float64"
	// or "int8").
	ParseReportQuant = metrics.ParseReportQuant
	// QuantizeActivations quantizes an activation vector to int8.
	QuantizeActivations = metrics.QuantizeActivations
)

// Model constructors (the paper's architectures).
var (
	// NewSmallCNN is the paper's 8/16-channel two-conv MNIST network.
	NewSmallCNN = nn.NewSmallCNN
	// NewLargeCNN is the paper's 20/50-channel variant (Table VI).
	NewLargeCNN = nn.NewLargeCNN
	// NewFashionCNN is the three-conv Fashion-MNIST network.
	NewFashionCNN = nn.NewFashionCNN
	// NewMiniVGG is the width-reduced VGG11 stand-in for CIFAR.
	NewMiniVGG = nn.NewMiniVGG
)

// Datasets, partitioning and backdoor triggers.
type (
	// Dataset is an in-memory labeled image collection.
	Dataset = dataset.Dataset
	// DatasetShape is the image geometry of a dataset.
	DatasetShape = dataset.Shape
	// GenConfig controls synthetic dataset generation.
	GenConfig = dataset.GenConfig
	// Trigger is a BadNets-style pixel-pattern backdoor.
	Trigger = dataset.Trigger
	// PoisonConfig describes a backdoor task (trigger, victim, target).
	PoisonConfig = dataset.PoisonConfig
)

// Dataset and trigger constructors.
var (
	// GenSynthMNIST generates the MNIST stand-in (see DESIGN.md §2).
	GenSynthMNIST = dataset.GenSynthMNIST
	// GenSynthFashion generates the Fashion-MNIST stand-in.
	GenSynthFashion = dataset.GenSynthFashion
	// GenSynthCIFAR generates the CIFAR-10 stand-in.
	GenSynthCIFAR = dataset.GenSynthCIFAR
	// PartitionKLabel splits a dataset across clients, K labels each.
	PartitionKLabel = dataset.PartitionKLabel
	// PixelPattern builds the paper's n-pixel corner triggers.
	PixelPattern = dataset.PixelPattern
	// DBAGlobalPattern builds the Distributed Backdoor Attack trigger.
	DBAGlobalPattern = dataset.DBAGlobalPattern
)

// Federated learning simulator.
type (
	// FLConfig bundles federated training hyperparameters.
	FLConfig = fl.Config
	// Server drives federated rounds and implements the defense's Tuner.
	Server = fl.Server
	// Client is an honest federated participant.
	Client = fl.Client
	// Attacker is a model-replacement backdoor attacker.
	Attacker = fl.Attacker
	// Participant is any federated client, benign or malicious.
	Participant = fl.Participant
	// Aggregator combines per-round client updates.
	Aggregator = fl.Aggregator
	// DropPolicy injects client failures into federated rounds.
	DropPolicy = fl.DropPolicy
	// RoundResult is one round's failure telemetry: who was selected, who
	// responded, who dropped out, and whether quorum was met.
	RoundResult = fl.RoundResult
)

// Population scale (DESIGN.md §12). A Registry holds client IDs only and
// materializes per-round cohorts through a factory; streaming rounds fold
// each update into a coordinate-range-sharded running aggregate as it
// arrives, bit-identical to the batch path at any shard count, with server
// memory bounded by the streaming window rather than the cohort.
type (
	// Registry is an ID-only client population with O(cohort) sampling.
	Registry = fl.Registry
	// ClientFactory materializes a participant for a sampled client ID.
	ClientFactory = fl.ClientFactory
	// StreamingAggregator is an Aggregator that can fold updates one at a
	// time into a sharded running aggregate.
	StreamingAggregator = fl.StreamingAggregator
	// Fold is one round's in-progress streaming aggregation.
	Fold = fl.Fold
	// SyntheticClient is a dataset-free load-generation participant.
	SyntheticClient = fl.SyntheticClient
)

var (
	// NewRegistry builds an empty client registry over a factory.
	NewRegistry = fl.NewRegistry
	// NewRegistryServer builds a server that samples each round's cohort
	// from a registry instead of holding a fixed participant slice.
	NewRegistryServer = fl.NewRegistryServer
)

// FL constructors.
var (
	// NewServer builds a federated server over a participant population.
	NewServer = fl.NewServer
	// NewClient builds an honest client.
	NewClient = fl.NewClient
	// NewAttacker builds a backdoor attacker.
	NewAttacker = fl.NewAttacker
	// NewDBAAttackers builds the DBA attacker cohort.
	NewDBAAttackers = fl.NewDBAAttackers
)

// The defense (the paper's contribution).
type (
	// PipelineConfig parameterizes Algorithm 1 end to end.
	PipelineConfig = core.PipelineConfig
	// PruneMethod selects RAP or MVP.
	PruneMethod = core.PruneMethod
	// AWConfig parameterizes the extreme-weight adjustment.
	AWConfig = core.AWConfig
	// DefenseReport is the stage-by-stage telemetry of a pipeline run.
	DefenseReport = core.Report
	// ReportClient is the defense's view of a federated client.
	ReportClient = core.ReportClient
	// ScopedEvaluator scores candidate models for the defense's
	// mutate-then-evaluate loops and accepts mutation scopes so
	// implementations can evaluate incrementally.
	ScopedEvaluator = core.ScopedEvaluator
	// Evaluator adapts a plain scoring function to ScopedEvaluator (full
	// forward pass per evaluation).
	Evaluator = core.Evaluator
	// SuffixEvaluator is the cached ScopedEvaluator: inside a mutation
	// scope it forwards the dataset through the invariant prefix once and
	// replays only the suffix layers per evaluation, bit-identical to a
	// full forward pass.
	SuffixEvaluator = metrics.SuffixEvaluator
)

// Defense methods and entry points.
const (
	// RAP is Rank Aggregation-based Pruning.
	RAP = core.RAP
	// MVP is Majority Voting-based Pruning.
	MVP = core.MVP
)

var (
	// DefaultPipelineConfig is the paper's "All" mode configuration.
	DefaultPipelineConfig = core.DefaultPipelineConfig
	// RunPipeline executes Algorithm 1 on a model in place.
	RunPipeline = core.RunPipeline
	// AdjustWeights runs the extreme-weight adjustment on one layer.
	AdjustWeights = core.AdjustWeights
	// PruneToThreshold prunes a layer in a given order under an accuracy
	// guard.
	PruneToThreshold = core.PruneToThreshold
	// ReportClients adapts federated participants to the defense's view.
	ReportClients = fl.ReportClients
)

// Networked federation (DESIGN.md §10). RemoteClient never panics on wire
// failures: calls retry with capped exponential backoff under per-attempt
// timeouts, and a call that still fails becomes a recorded dropout in the
// round drivers, which proceed on the surviving quorum.
type (
	// RemoteClient is the server-side stub for a client reachable over HTTP.
	RemoteClient = transport.RemoteClient
	// ClientServer exposes one federated participant over HTTP: a Fleet of
	// one, mounted at the root.
	ClientServer = transport.ClientServer
	// RetryPolicy bounds RemoteClient's per-call retry loop.
	RetryPolicy = transport.RetryPolicy
	// RemoteOption configures a RemoteClient.
	RemoteOption = transport.RemoteOption
	// FaultInjector deterministically injects wire faults (chaos testing).
	FaultInjector = transport.FaultInjector
	// Fault is one scheduled wire failure.
	Fault = transport.Fault
	// FaultKind enumerates the injectable failure modes.
	FaultKind = transport.FaultKind
	// FaultSchedule decides which fault each exchange suffers.
	FaultSchedule = transport.Schedule
	// Fleet hosts many federated participants behind one HTTP listener
	// (paths /c/<id>/v1/update), for load generation at population scale.
	Fleet = transport.Fleet
)

// Transport constructors and options.
var (
	// NewRemoteClient builds a stub for the client server at an address.
	NewRemoteClient = transport.NewRemoteClient
	// NewClientServer wraps a participant for serving over HTTP.
	NewClientServer = transport.NewClientServer
	// NewFaultInjector builds a deterministic fault injector.
	NewFaultInjector = transport.NewFaultInjector
	// DefaultRetryPolicy is the production retry configuration.
	DefaultRetryPolicy = transport.DefaultRetryPolicy
	// WithRetryPolicy overrides a RemoteClient's retry policy.
	WithRetryPolicy = transport.WithRetryPolicy
	// WithTransport installs a custom http.RoundTripper on a RemoteClient.
	WithTransport = transport.WithTransport
	// NewFleet builds an empty participant fleet.
	NewFleet = transport.NewFleet
	// FleetClientAddr is the RemoteClient address of one fleet participant.
	FleetClientAddr = transport.FleetClientAddr
)

// Compact report wire codecs (DESIGN.md §14). Lossless, canonical
// (encode(decode(p)) == p), self-describing by a 1-byte tag that names the
// payload type; the report endpoints refuse anything else.
var (
	// AppendRanksDelta appends a varint delta-encoded rank vector.
	AppendRanksDelta = transport.AppendRanksDelta
	// DecodeRanksDelta decodes a RanksDelta payload.
	DecodeRanksDelta = transport.DecodeRanksDelta
	// AppendVoteBitmap appends a bit-packed prune-vote bitmap.
	AppendVoteBitmap = transport.AppendVoteBitmap
	// DecodeVoteBitmap decodes a VoteBitmap payload.
	DecodeVoteBitmap = transport.DecodeVoteBitmap
	// AppendActs8 appends a quantized int8 activation payload.
	AppendActs8 = transport.AppendActs8
	// DecodeActs8 decodes an Acts8 payload.
	DecodeActs8 = transport.DecodeActs8
)

// Experiment harness (paper scenarios).
type (
	// Scenario describes one federated backdoor experiment.
	Scenario = eval.Scenario
	// Trained is a built and federatedly trained scenario.
	Trained = eval.Trained
)

var (
	// MNISTScenario is the paper's MNIST-scale setting.
	MNISTScenario = eval.MNISTScenario
	// FashionScenario is the Fashion-MNIST-scale setting.
	FashionScenario = eval.FashionScenario
	// CIFARScenario is the CIFAR-scale DBA setting.
	CIFARScenario = eval.CIFARScenario
	// BuildScenario constructs a scenario's population without training.
	BuildScenario = eval.Build
	// Run builds and trains a scenario.
	Run = eval.Run
)

// Experiment artifacts (paper tables/figures and ablations).
type (
	// ExperimentPair is one (victim, attack) label pair.
	ExperimentPair = eval.Pair
	// ResultTable is a paper-style results table.
	ResultTable = eval.Table
	// ResultFigure is a paper-style figure (named series).
	ResultFigure = eval.Figure
)

var (
	// TableI..TableVII regenerate the paper's tables (see DESIGN.md §4).
	TableI   = eval.TableI
	TableII  = eval.TableII
	TableIII = eval.TableIII
	TableIV  = eval.TableIV
	TableV   = eval.TableV
	TableVI  = eval.TableVI
	TableVII = eval.TableVII
	// AdaptiveAttackTable evaluates the §VI-B adaptive attacks.
	AdaptiveAttackTable = eval.AdaptiveAttackTable
)

// Metrics.
var (
	// Accuracy is plain test accuracy of a model on a dataset.
	Accuracy = metrics.Accuracy
	// AttackSuccessRate is the paper's AA metric.
	AttackSuccessRate = metrics.AttackSuccessRate
	// NewSuffixEvaluator builds a cached accuracy evaluator over a dataset.
	NewSuffixEvaluator = metrics.NewSuffixEvaluator
	// NewCachedASR builds a cached attack-success evaluator that poisons
	// the test set once instead of per call.
	NewCachedASR = metrics.NewCachedASR
)

// Baselines.
type (
	// Krum is the Byzantine-robust aggregation rule of Blanchard et al.
	Krum = robust.Krum
	// MultiKrum averages the best updates under the Krum score.
	MultiKrum = robust.MultiKrum
	// Bulyan composes Krum selection with a trimmed-mean reduction.
	Bulyan = robust.Bulyan
	// TrimmedMean is coordinate-wise trimmed-mean aggregation.
	TrimmedMean = robust.TrimmedMean
	// Median is coordinate-wise median aggregation.
	Median = robust.Median
	// NeuralCleanseConfig parameterizes trigger reverse-engineering.
	NeuralCleanseConfig = neuralcleanse.Config
)

var (
	// ReverseTrigger reverse-engineers a minimal trigger for one label.
	ReverseTrigger = neuralcleanse.ReverseTrigger
	// NeuralCleanseMitigate prunes neurons activated by a reversed trigger.
	NeuralCleanseMitigate = neuralcleanse.Mitigate
)
