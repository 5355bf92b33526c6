package fl

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// TestClientRecordsTheMaskedModel: a Client reports on an unmasked working
// model of its own holding the requested parameters, and the activations it
// records — the ones it ranks and votes on (quantized first at int8), which
// never leave it — equal those of the masked model itself. The models
// are the two transport's TestRemoteReportsMatchInProcess reports on: a
// SmallCNN away from its initialization, and a MiniVGG with units pruned in
// its last conv layer and in the conv layer before it, whose BatchNorm
// channels the pruning masks too.
func TestClientRecordsTheMaskedModel(t *testing.T) {
	smallTrain, _ := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 6, TestPerClass: 1, Seed: 113})
	vggTrain, _ := dataset.GenSynthCIFAR(dataset.GenConfig{TrainPerClass: 6, TestPerClass: 1, Seed: 120})
	in16 := func(c int) nn.Input { return nn.Input{C: c, H: 16, W: 16} }
	for _, setup := range []struct {
		name     string
		train    *dataset.Dataset
		template *nn.Sequential
		prune    bool
	}{
		{"SmallCNN", smallTrain, nn.NewSmallCNN(in16(1), 10, rand.New(rand.NewSource(114))), false},
		{"pruned MiniVGG", vggTrain, nn.NewMiniVGG(in16(3), 10, rand.New(rand.NewSource(121))), true},
	} {
		train, template := setup.train, setup.template
		li := template.LastConvIndex()
		m := template.Clone()
		rng := rand.New(rand.NewSource(115))
		delta := make([]float64, m.NumParams())
		for i := range delta {
			delta[i] = 0.05 * rng.NormFloat64()
		}
		m.AddDeltaVector(1, delta)
		if setup.prune {
			prev := li - 1
			for _, ok := m.Layer(prev).(*nn.Conv2D); !ok; _, ok = m.Layer(prev).(*nn.Conv2D) {
				prev--
			}
			if _, ok := m.Layer(prev + 1).(*nn.BatchNorm2D); !ok {
				t.Fatalf("%s: layer %d is followed by %s, not a BatchNorm", setup.name, prev, m.Layer(prev+1).Name())
			}
			for _, u := range []int{0, 5, 17} {
				m.PruneModelUnit(li, u)
				m.PruneModelUnit(prev, u)
			}
		}
		// What a fresh clone of m records, masks and all.
		want := metrics.LocalActivations(m.Clone(), li, train, 0)
		client := NewClient(0, train, template, Config{Rounds: 1, LocalEpochs: 1, BatchSize: 20, LR: 0.05}, 116)
		if acts := client.activationReport(m, li); !slices.Equal(acts, want) {
			t.Errorf("%s: the client records %v, the model itself %v", setup.name, acts, want)
		}
	}
}
