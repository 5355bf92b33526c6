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
// This package is a facade over the implementation packages in internal/.
// It holds what the examples and the quick start use, and the types those
// names take or return; the commands under cmd/ import internal/ directly.
package fedcleanse

import (
	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/robust"
)

// Model and training stack.
type (
	// Model is a feed-forward neural network (a stack of layers).
	Model = nn.Sequential
	// ModelInput is the per-sample input geometry of a model.
	ModelInput = nn.Input
)

// NewSmallCNN is the paper's 8/16-channel two-conv MNIST network.
var NewSmallCNN = nn.NewSmallCNN

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
)

// FL constructors.
var (
	// NewServer builds a federated server over a participant population.
	NewServer = fl.NewServer
	// NewClient builds an honest client.
	NewClient = fl.NewClient
	// NewAttacker builds a backdoor attacker.
	NewAttacker = fl.NewAttacker
)

// The defense (the paper's contribution).
type (
	// PipelineConfig parameterizes Algorithm 1 end to end.
	PipelineConfig = core.PipelineConfig
	// PruneMethod selects RAP or MVP.
	PruneMethod = core.PruneMethod
	// DefenseReport is the stage-by-stage telemetry of a pipeline run.
	DefenseReport = core.Report
	// ReportClient is the defense's view of a federated client. The model
	// a report is asked on is shared by concurrent calls: read it, never
	// modify it or run it.
	ReportClient = core.ReportClient
	// ScopedEvaluator scores candidate models for the defense's
	// mutate-then-evaluate loops and accepts mutation scopes so
	// implementations can evaluate incrementally.
	ScopedEvaluator = core.ScopedEvaluator
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
	// ReportClients adapts federated participants to the defense's view.
	ReportClients = fl.ReportClients
)

// Experiment harness (paper scenarios).
type (
	// Scenario describes one federated backdoor experiment.
	Scenario = eval.Scenario
	// Trained is a built and federatedly trained scenario.
	Trained = eval.Trained
	// ExperimentPair is one (victim, attack) label pair.
	ExperimentPair = eval.Pair
	// ResultTable is a paper-style results table.
	ResultTable = eval.Table
)

var (
	// MNISTScenario is the paper's MNIST-scale setting.
	MNISTScenario = eval.MNISTScenario
	// CIFARScenario is the CIFAR-scale DBA setting.
	CIFARScenario = eval.CIFARScenario
	// BuildScenario constructs a scenario's population without training.
	BuildScenario = eval.Build
	// Run builds and trains a scenario.
	Run = eval.Run
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
)

// Byzantine-robust aggregation baselines.
type (
	// Krum is the Byzantine-robust aggregation rule of Blanchard et al.
	Krum = robust.Krum
	// Bulyan composes Krum selection with a trimmed-mean reduction.
	Bulyan = robust.Bulyan
	// TrimmedMean is coordinate-wise trimmed-mean aggregation.
	TrimmedMean = robust.TrimmedMean
	// Median is coordinate-wise median aggregation.
	Median = robust.Median
)
