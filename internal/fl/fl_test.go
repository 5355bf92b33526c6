package fl

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// tinySetup builds a small dataset, template model and config for fast
// federated tests.
func tinySetup(t *testing.T, seed int64) (*dataset.Dataset, *dataset.Dataset, *nn.Sequential, Config) {
	t.Helper()
	train, test := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 30, TestPerClass: 10, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng)
	cfg := Config{Rounds: 2, LocalEpochs: 1, BatchSize: 20, LR: 0.05}
	return train, test, template, cfg
}

func TestMeanAggregator(t *testing.T) {
	agg := MeanAggregator{}
	got := agg.Aggregate([][]float64{{1, 2}, {3, 4}, {5, 6}})
	want := []float64{3, 4}
	for i, w := range want {
		if math.Abs(got[i]-w) > 1e-12 {
			t.Fatalf("mean = %v, want %v", got, want)
		}
	}
}

func TestMeanAggregatorPanics(t *testing.T) {
	for _, deltas := range [][][]float64{nil, {{1, 2}, {1}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid input accepted")
				}
			}()
			MeanAggregator{}.Aggregate(deltas)
		}()
	}
}

func TestClientLocalUpdateMovesParams(t *testing.T) {
	train, _, template, cfg := tinySetup(t, 1)
	rng := rand.New(rand.NewSource(2))
	shard := dataset.PartitionKLabel(train, 1, 3, 60, rng)[0]
	c := NewClient(0, shard, template, cfg, 3)
	global := template.ParamsVector()
	delta := c.LocalUpdate(global, 0)
	if len(delta) != len(global) {
		t.Fatalf("delta length %d, want %d", len(delta), len(global))
	}
	norm := 0.0
	for _, v := range delta {
		norm += v * v
	}
	if norm == 0 {
		t.Fatal("local training produced a zero update")
	}
}

func TestClientUpdateIsDeterministicPerSeed(t *testing.T) {
	train, _, template, cfg := tinySetup(t, 4)
	shard := dataset.PartitionKLabel(train, 1, 3, 60, rand.New(rand.NewSource(5)))[0]
	global := template.ParamsVector()
	a := NewClient(0, shard, template, cfg, 7).LocalUpdate(global, 0)
	b := NewClient(0, shard, template, cfg, 7).LocalUpdate(global, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different updates")
		}
	}
}

// TestParticipantsArePureFunctionsOfTheirCall: a Client's and an Attacker's
// update depends on (seed, id, global, round) and nothing else — not on the
// calls before it, nor on a call running beside it — and training leaves
// the shard it reads as it found it.
func TestParticipantsArePureFunctionsOfTheirCall(t *testing.T) {
	train, _, template, cfg := tinySetup(t, 84)
	shard := dataset.PartitionKLabelForced(train, 1, 3, 60, rand.New(rand.NewSource(85)), 9, 1)[0]
	poison := dataset.PoisonConfig{Trigger: dataset.PixelPattern(3, train.Shape), VictimLabel: 9, TargetLabel: 1}
	atk := NewAttacker(1, shard, template, cfg, poison, 4, 86)
	global := template.ParamsVector()
	for _, p := range []Participant{NewClient(0, shard, template, cfg, 86), atk} {
		data := []*dataset.Dataset{shard}
		if a, ok := p.(*Attacker); ok {
			data = append(data, a.poison)
		}
		var before [][]dataset.Sample
		for _, d := range data {
			before = append(before, append([]dataset.Sample(nil), d.Samples...))
		}
		first := p.LocalUpdate(global, 3)
		other := p.LocalUpdate(global, 4)
		var concurrent [2][]float64
		var wg sync.WaitGroup
		for i := range concurrent {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				concurrent[i] = p.LocalUpdate(global, 3)
			}(i)
		}
		wg.Wait()
		for _, again := range append([][]float64{p.LocalUpdate(global, 3)}, concurrent[:]...) {
			for i := range first {
				if math.Float64bits(again[i]) != math.Float64bits(first[i]) {
					t.Fatalf("%T: repeated call differs at %d: %v vs %v", p, i, again[i], first[i])
				}
			}
		}
		if slices.Equal(first, other) {
			t.Fatalf("%T: rounds 3 and 4 trained in the same order", p)
		}
		for j, d := range data {
			for i, s := range d.Samples {
				if &s.X[0] != &before[j][i].X[0] || s.Label != before[j][i].Label {
					t.Fatalf("%T: training reordered sample %d of its dataset", p, i)
				}
			}
		}
	}
}

func TestServerRoundAppliesAggregate(t *testing.T) {
	_, _, template, cfg := tinySetup(t, 6)
	// A fake participant returning a constant delta of +1 everywhere.
	n := template.NumParams()
	p := &fakeParticipant{id: 0, delta: ones(n)}
	srv := NewServer(template, []Participant{p}, cfg, 8)
	before := srv.Model.ParamsVector()
	srv.RoundDetail(0)
	after := srv.Model.ParamsVector()
	for i := range after {
		if math.Abs(after[i]-(before[i]+1)) > 1e-12 {
			t.Fatalf("param %d: %g -> %g, want +1", i, before[i], after[i])
		}
	}
}

func TestServerAveragesAcrossParticipants(t *testing.T) {
	_, _, template, cfg := tinySetup(t, 9)
	n := template.NumParams()
	parts := []Participant{
		&fakeParticipant{id: 0, delta: ones(n)},
		&fakeParticipant{id: 1, delta: scaled(n, 3)},
	}
	srv := NewServer(template, parts, cfg, 10)
	before := srv.Model.ParamsVector()
	srv.RoundDetail(0)
	after := srv.Model.ParamsVector()
	for i := range after {
		if math.Abs(after[i]-(before[i]+2)) > 1e-12 {
			t.Fatal("server did not average deltas")
		}
	}
}

func TestServerClientSelection(t *testing.T) {
	_, _, template, cfg := tinySetup(t, 11)
	cfg.SelectPerRound = 2
	n := template.NumParams()
	var parts []Participant
	for i := 0; i < 5; i++ {
		parts = append(parts, &fakeParticipant{id: i, delta: make([]float64, n)})
	}
	srv := NewServer(template, parts, cfg, 12)
	ids := srv.RoundDetail(0).Completed
	if len(ids) != 2 {
		t.Fatalf("selected %d clients, want 2", len(ids))
	}
	if ids[0] == ids[1] {
		t.Fatal("selected the same client twice")
	}
	// SelectPerRound = 0 means everyone.
	cfg.SelectPerRound = 0
	srv = NewServer(template, parts, cfg, 13)
	if ids := srv.RoundDetail(0).Completed; len(ids) != 5 {
		t.Fatalf("selected %d clients with SelectPerRound=0, want 5", len(ids))
	}
}

func TestAttackerScalesDeltaAfterScaleFromRound(t *testing.T) {
	train, _, template, cfg := tinySetup(t, 14)
	rng := rand.New(rand.NewSource(15))
	shard := dataset.PartitionKLabelForced(train, 1, 3, 60, rng, 9, 1)[0]
	poison := dataset.PoisonConfig{
		Trigger:     dataset.PixelPattern(3, train.Shape),
		VictimLabel: 9, TargetLabel: 1,
	}
	global := template.ParamsVector()
	// The same round trains in the same order; only the scaling differs.
	mkDelta := func(scaleFrom int) []float64 {
		a := NewAttacker(0, shard, template, cfg, poison, 4, 16)
		a.ScaleFromRound = scaleFrom
		return a.LocalUpdate(global, 1)
	}
	scaled := mkDelta(0)
	unscaled := mkDelta(2) // round 1 < ScaleFromRound
	// mask marks the coordinates of running statistics.
	var mask []bool
	for _, p := range template.Params() {
		for range p.Value.Data {
			mask = append(mask, p.Stat)
		}
	}
	for i := range unscaled {
		if mask[i] {
			if math.Abs(scaled[i]-unscaled[i]) > 1e-9 {
				t.Fatal("statistic coordinate was scaled")
			}
			continue
		}
		if math.Abs(scaled[i]-4*unscaled[i]) > 1e-9 {
			t.Fatalf("coordinate %d: scaled %g vs 4×unscaled %g", i, scaled[i], 4*unscaled[i])
		}
	}
}

func TestAttackerPoisonedDataset(t *testing.T) {
	train, _, template, cfg := tinySetup(t, 17)
	rng := rand.New(rand.NewSource(18))
	shard := dataset.PartitionKLabelForced(train, 1, 3, 60, rng, 9, 1)[0]
	poison := dataset.PoisonConfig{
		Trigger:     dataset.PixelPattern(3, train.Shape),
		VictimLabel: 9, TargetLabel: 1,
	}
	a := NewAttacker(0, shard, template, cfg, poison, 4, 19)
	if a.poison.Len() <= shard.Len() {
		t.Fatal("poisoned mixture contains no triggered copies")
	}
	// Its activation reports come from the clean shard.
	if a.clean != shard {
		t.Fatal("attacker reports from a dataset other than its clean shard")
	}
}

func TestPruningAwareAttackerAvoidsUnits(t *testing.T) {
	train, _, template, cfg := tinySetup(t, 23)
	rng := rand.New(rand.NewSource(24))
	shard := dataset.PartitionKLabelForced(train, 1, 3, 60, rng, 9, 1)[0]
	poison := dataset.PoisonConfig{
		Trigger:     dataset.PixelPattern(3, train.Shape),
		VictimLabel: 9, TargetLabel: 1,
	}
	a := NewAttacker(0, shard, template, cfg, poison, 1, 25)
	li := template.LastConvIndex()
	a.AvoidLayer = li
	a.AvoidUnits = []int{0, 1}
	global := template.ParamsVector()
	conv := trainedModel(template, global, a.LocalUpdate(global, 0), 1).Layer(li).(*nn.Conv2D)
	for u := 0; u < 3; u++ {
		dead := true
		for _, v := range conv.AppendUnitState(nil, u) {
			dead = dead && v == 0
		}
		if dead != (u < 2) {
			t.Fatalf("unit %d of the submitted model: dead=%v, want %v", u, dead, u < 2)
		}
	}
	// The masks were the attacker's for one update only: the working model
	// it trained on went back to the list honest clients draw from.
	r := template.Replicas().Get()
	for pi := 0; pi < r.Model.NumLayers(); pi++ {
		if p, ok := r.Model.Layer(pi).(nn.Prunable); ok && p.PrunedCount() != 0 {
			t.Fatalf("layer %d of the returned working model keeps %d masked units", pi, p.PrunedCount())
		}
	}
}

// trainedModel rebuilds the model a participant submitted from its update:
// global + delta/γ on a clone of template, running statistics unscaled.
// Exact wherever the trained value is zero (pruned, clipped), since
// g + (0 − g) = 0; a rounding off it elsewhere.
func trainedModel(template *nn.Sequential, global, delta []float64, gamma float64) *nn.Sequential {
	m := template.Clone()
	v := make([]float64, len(global))
	off := 0
	for _, p := range m.Params() {
		g := gamma
		if p.Stat {
			g = 1
		}
		for i := off; i < off+p.Value.Len(); i++ {
			v[i] = global[i] + delta[i]/g
		}
		off += p.Value.Len()
	}
	m.SetParamsVector(v)
	return m
}

func TestAttackerSelfClipRemovesExtremes(t *testing.T) {
	train, _, template, cfg := tinySetup(t, 26)
	rng := rand.New(rand.NewSource(27))
	shard := dataset.PartitionKLabelForced(train, 1, 3, 60, rng, 9, 1)[0]
	poison := dataset.PoisonConfig{
		Trigger:     dataset.PixelPattern(3, train.Shape),
		VictimLabel: 9, TargetLabel: 1,
	}
	a := NewAttacker(0, shard, template, cfg, poison, 1, 28)
	a.SelfClipDelta = 2
	global := template.ParamsVector()
	submitted := trainedModel(template, global, a.LocalUpdate(global, 0), 1)
	conv := submitted.Layer(template.LastConvIndex()).(*nn.Conv2D)
	w := conv.W.Value
	mu, sg := w.Mean(), w.Std()
	for _, v := range w.Data {
		// After self-clipping, surviving weights sit within the clip band
		// (recomputed statistics shift slightly; allow headroom).
		if v != 0 && (v < mu-3*sg || v > mu+3*sg) {
			t.Fatalf("extreme weight %g survived self-clip", v)
		}
	}
}

func TestReportsHonestAndAdaptive(t *testing.T) {
	train, _, template, cfg := tinySetup(t, 29)
	rng := rand.New(rand.NewSource(30))
	shards := dataset.PartitionKLabelForced(train, 2, 3, 40, rng, 9, 1)
	poison := dataset.PoisonConfig{
		Trigger:     dataset.PixelPattern(3, train.Shape),
		VictimLabel: 9, TargetLabel: 1,
	}
	a := NewAttacker(0, shards[0], template, cfg, poison, 2, 31)
	c := NewClient(1, shards[1], template, cfg, 32)
	li := template.LastConvIndex()
	units := template.Layer(li).(nn.Prunable).Units()

	for _, rc := range []interface {
		RankReport(*nn.Sequential, int) []int
		VoteReport(*nn.Sequential, int, float64) []bool
	}{a, c} {
		ranks := rc.RankReport(template, li)
		if len(ranks) != units {
			t.Fatalf("rank report length %d, want %d", len(ranks), units)
		}
		votes := rc.VoteReport(template, li, 0.5)
		n := 0
		for _, v := range votes {
			if v {
				n++
			}
		}
		if n != units/2 {
			t.Fatalf("%d prune votes, want %d", n, units/2)
		}
	}

	// Manipulated ranks are still valid permutations.
	a.SetDefenseBehavior(AttackerDefenseBehavior{ManipulateRanks: true})
	ranks := a.RankReport(template, li)
	seen := make([]bool, units+1)
	for _, r := range ranks {
		if r < 1 || r > units || seen[r] {
			t.Fatal("manipulated rank report is not a permutation")
		}
		seen[r] = true
	}
}

func TestReportClientsFilters(t *testing.T) {
	train, _, template, cfg := tinySetup(t, 33)
	rng := rand.New(rand.NewSource(34))
	shard := dataset.PartitionKLabel(train, 1, 3, 40, rng)[0]
	parts := []Participant{
		NewClient(0, shard, template, cfg, 35),
		&fakeParticipant{id: 1, delta: nil}, // not a ReportClient
	}
	if got := len(ReportClients(parts)); got != 1 {
		t.Fatalf("ReportClients kept %d, want 1", got)
	}
}

func TestFineTunePreservesMasks(t *testing.T) {
	train, _, template, cfg := tinySetup(t, 36)
	rng := rand.New(rand.NewSource(37))
	shards := dataset.PartitionKLabel(train, 2, 3, 40, rng)
	parts := []Participant{
		NewClient(0, shards[0], template, cfg, 38),
		NewClient(1, shards[1], template, cfg, 39),
	}
	srv := NewServer(template, parts, cfg, 40)
	m := srv.Model.Clone()
	li := m.LastConvIndex()
	m.PruneModelUnit(li, 0)
	srv.FineTune(m, 2)
	conv := m.Layer(li).(*nn.Conv2D)
	fanIn := conv.W.Value.Dim(1)
	for j := 0; j < fanIn; j++ {
		if conv.W.Value.Data[j] != 0 {
			t.Fatal("fine-tuning resurrected a pruned unit")
		}
	}
}

func TestTrainLocalImprovesAccuracy(t *testing.T) {
	train, test, template, _ := tinySetup(t, 41)
	rng := rand.New(rand.NewSource(42))
	m := template.Clone()
	before := metrics.Accuracy(m, test, 0)
	NewTrainer(Config{LocalEpochs: 3, BatchSize: 20, LR: 0.05}).Train(m, train, rng)
	after := metrics.Accuracy(m, test, 0)
	if after <= before {
		t.Fatalf("training did not improve accuracy: %.3f -> %.3f", before, after)
	}
}

// fakeParticipant returns a fixed delta.
type fakeParticipant struct {
	id    int
	delta []float64
}

func (f *fakeParticipant) ID() int { return f.id }
func (f *fakeParticipant) LocalUpdate(global []float64, _ int) []float64 {
	if f.delta == nil {
		return make([]float64, len(global))
	}
	return append([]float64(nil), f.delta...)
}

func ones(n int) []float64 { return scaled(n, 1) }

func scaled(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
