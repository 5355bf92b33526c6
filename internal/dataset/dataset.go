// Package dataset provides the data substrate of the fedcleanse
// reproduction: procedurally generated image-classification datasets that
// stand in for MNIST, Fashion-MNIST and CIFAR-10 (the module is offline and
// carries no data files — see DESIGN.md §2 for why the substitution
// preserves the paper's behaviour), the non-IID K-label client partitioner,
// and the BadNets / DBA backdoor trigger machinery.
//
// Every stochastic function takes an explicit *rand.Rand so experiments are
// reproducible from a seed.
package dataset

import (
	"fmt"
	"math/rand"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Shape is the per-sample image geometry.
type Shape struct {
	C, H, W int
}

// Elems returns the number of scalars per sample.
func (s Shape) Elems() int { return s.C * s.H * s.W }

// Sample is one labeled image. X is a flat C×H×W buffer with values in
// [0, 1] (the paper's input normalization: bounding input ranges is part of
// the extreme-value defense).
type Sample struct {
	X     []float64
	Label int
}

// Clone returns a deep copy of the sample.
func (s Sample) Clone() Sample {
	return Sample{X: append([]float64(nil), s.X...), Label: s.Label}
}

// Dataset is an in-memory labeled image collection.
type Dataset struct {
	Shape   Shape
	Classes int
	Samples []Sample
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// ByLabel groups sample indices by label.
func (d *Dataset) ByLabel() [][]int {
	groups := make([][]int, d.Classes)
	for i, s := range d.Samples {
		groups[s.Label] = append(groups[s.Label], i)
	}
	return groups
}

// Subset returns a dataset view containing the given sample indices. The
// samples are shared (not copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Shape: d.Shape, Classes: d.Classes, Samples: make([]Sample, len(idx))}
	for i, j := range idx {
		out.Samples[i] = d.Samples[j]
	}
	return out
}

// Shuffle permutes the samples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
}

// Batch assembles samples[lo:hi] into an NCHW input tensor and a label
// slice for training or evaluation.
func (d *Dataset) Batch(lo, hi int) (*tensor.Tensor, []int) {
	return d.BatchInto(lo, hi, nil, nil)
}

// BatchInto is Batch reusing the caller's buffers: x is reused when it has
// exactly the batch shape, labels when its capacity suffices. Either (or
// both) may be nil to allocate fresh. It returns the buffers actually
// filled; training loops thread them through successive calls so steady-
// state batch assembly allocates nothing.
func (d *Dataset) BatchInto(lo, hi int, x *tensor.Tensor, labels []int) (*tensor.Tensor, []int) {
	if lo < 0 || hi > len(d.Samples) || lo > hi {
		panic(fmt.Sprintf("dataset: Batch[%d:%d] out of range for %d samples", lo, hi, len(d.Samples)))
	}
	n := hi - lo
	el := d.Shape.Elems()
	x = tensor.EnsureShape(x, n, d.Shape.C, d.Shape.H, d.Shape.W)
	if cap(labels) < n {
		labels = make([]int, n)
	}
	labels = labels[:n]
	for i := 0; i < n; i++ {
		s := d.Samples[lo+i]
		copy(x.Data[i*el:(i+1)*el], s.X)
		labels[i] = s.Label
	}
	return x, labels
}

// PartitionKLabel splits train across clients using the paper's non-IID
// scheme (§V "Client Data Distribution"): each client is assigned k labels
// uniformly at random and receives perClient samples drawn from those
// labels. Samples are drawn without replacement per label until a label
// pool is exhausted, after which drawing wraps around (the paper keeps
// per-client sample counts equal, so wrap-around is preferable to short
// shards). The returned datasets share sample storage with train.
func PartitionKLabel(train *Dataset, clients, k, perClient int, rng *rand.Rand) []*Dataset {
	return PartitionKLabelForced(train, clients, k, perClient, rng, -1, 0)
}

// PartitionKLabelForced is PartitionKLabel with one extra constraint: the
// first forcedClients shards are guaranteed to include forcedLabel among
// their k labels. The paper's threat model gives every attacker backdoor
// (victim-label) samples; forcing the victim label into attacker shards
// realizes that under non-IID partitioning. forcedLabel < 0 disables the
// constraint.
func PartitionKLabelForced(train *Dataset, clients, k, perClient int, rng *rand.Rand, forcedLabel, forcedClients int) []*Dataset {
	if k <= 0 || k > train.Classes {
		panic(fmt.Sprintf("dataset: PartitionKLabel k=%d with %d classes", k, train.Classes))
	}
	if clients <= 0 || perClient <= 0 {
		panic(fmt.Sprintf("dataset: PartitionKLabel clients=%d perClient=%d", clients, perClient))
	}
	byLabel := train.ByLabel()
	// cursor[l] walks label l's pool; each label pool is shuffled once.
	cursors := make([]int, train.Classes)
	pools := make([][]int, train.Classes)
	for l, idxs := range byLabel {
		pool := append([]int(nil), idxs...)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		pools[l] = pool
	}
	if forcedLabel >= train.Classes {
		panic(fmt.Sprintf("dataset: forced label %d with %d classes", forcedLabel, train.Classes))
	}
	assignments := assignLabels(train.Classes, clients, k, rng, forcedLabel, forcedClients)
	out := make([]*Dataset, clients)
	for c := 0; c < clients; c++ {
		labels := assignments[c]
		idx := make([]int, 0, perClient)
		for i := 0; i < perClient; i++ {
			l := labels[i%k]
			pool := pools[l]
			if len(pool) == 0 {
				panic(fmt.Sprintf("dataset: label %d has no samples", l))
			}
			idx = append(idx, pool[cursors[l]%len(pool)])
			cursors[l]++
		}
		out[c] = train.Subset(idx)
		out[c].Shuffle(rng)
	}
	return out
}

// assignLabels deals k distinct labels to each of clients shards with
// balanced global coverage: every label lands in roughly clients·k/classes
// shards (a random label draw would leave some labels almost or entirely
// uncovered, capping what federated averaging can learn). Clients below
// forcedClients are guaranteed to receive forcedLabel. Assignment order
// and ties are randomized by rng.
func assignLabels(classes, clients, k int, rng *rand.Rand, forcedLabel, forcedClients int) [][]int {
	// quota[l] counts how many more shards label l should appear in.
	quota := make([]int, classes)
	total := clients * k
	for l := 0; l < classes; l++ {
		quota[l] = total / classes
	}
	for _, l := range rng.Perm(classes)[:total%classes] {
		quota[l]++
	}
	out := make([][]int, clients)
	for c := 0; c < clients; c++ {
		labels := make([]int, 0, k)
		taken := make([]bool, classes)
		if forcedLabel >= 0 && c < forcedClients {
			labels = append(labels, forcedLabel)
			taken[forcedLabel] = true
			if quota[forcedLabel] > 0 {
				quota[forcedLabel]--
			}
		}
		for len(labels) < k {
			// Pick an untaken label with the largest remaining quota,
			// breaking ties uniformly at random.
			best, count := -1, 0
			for l := 0; l < classes; l++ {
				if taken[l] {
					continue
				}
				switch {
				case best == -1 || quota[l] > quota[best]:
					best, count = l, 1
				case quota[l] == quota[best]:
					count++
					if rng.Intn(count) == 0 {
						best = l
					}
				}
			}
			labels = append(labels, best)
			taken[best] = true
			quota[best]--
		}
		out[c] = labels
	}
	return out
}
