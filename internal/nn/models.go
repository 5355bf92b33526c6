package nn

import (
	"math/rand"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Input describes the per-sample input geometry of a model.
type Input struct {
	C, H, W int
}

// NewSmallCNN builds the paper's small MNIST network: two convolutional
// layers (8 and 16 channels) followed by two fully connected layers
// (Table VI "Small NN"; the architecture used for the MNIST experiments).
func NewSmallCNN(in Input, classes int, rng *rand.Rand) *Sequential {
	return newTwoConvCNN(in, classes, 8, 16, 64, rng)
}

// NewLargeCNN builds the paper's large MNIST network with 20 and 50
// channels in the two convolutional layers (Table VI "Large NN").
func NewLargeCNN(in Input, classes int, rng *rand.Rand) *Sequential {
	return newTwoConvCNN(in, classes, 20, 50, 128, rng)
}

// newTwoConvCNN is the shared conv-conv-dense-dense topology.
func newTwoConvCNN(in Input, classes, f1, f2, hidden int, rng *rand.Rand) *Sequential {
	d1 := tensor.ConvDims{C: in.C, H: in.H, W: in.W, K: 3, Stride: 1, Pad: 1}
	c1 := NewConv2D("conv1", d1, f1, rng)
	h1, w1 := d1.OutH()/2, d1.OutW()/2 // after pool1
	d2 := tensor.ConvDims{C: f1, H: h1, W: w1, K: 3, Stride: 1, Pad: 1}
	c2 := NewConv2D("conv2", d2, f2, rng)
	h2, w2 := d2.OutH()/2, d2.OutW()/2 // after pool2
	flat := f2 * h2 * w2
	return NewSequential(
		c1,
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 2, 2),
		c2,
		NewReLU("relu2"),
		NewMaxPool2D("pool2", 2, 2),
		NewFlatten("flatten"),
		NewDense("fc1", flat, hidden, rng),
		NewReLU("relu3"),
		NewDense("fc2", hidden, classes, rng),
	)
}

// NewFashionCNN builds the paper's Fashion-MNIST network: three
// convolutional layers and two fully connected layers.
func NewFashionCNN(in Input, classes int, rng *rand.Rand) *Sequential {
	d1 := tensor.ConvDims{C: in.C, H: in.H, W: in.W, K: 3, Stride: 1, Pad: 1}
	c1 := NewConv2D("conv1", d1, 8, rng)
	h1, w1 := d1.OutH()/2, d1.OutW()/2
	d2 := tensor.ConvDims{C: 8, H: h1, W: w1, K: 3, Stride: 1, Pad: 1}
	c2 := NewConv2D("conv2", d2, 16, rng)
	h2, w2 := d2.OutH()/2, d2.OutW()/2
	d3 := tensor.ConvDims{C: 16, H: h2, W: w2, K: 3, Stride: 1, Pad: 1}
	c3 := NewConv2D("conv3", d3, 32, rng)
	flat := 32 * d3.OutH() * d3.OutW()
	return NewSequential(
		c1, NewReLU("relu1"), NewMaxPool2D("pool1", 2, 2),
		c2, NewReLU("relu2"), NewMaxPool2D("pool2", 2, 2),
		c3, NewReLU("relu3"),
		NewFlatten("flatten"),
		NewDense("fc1", flat, 64, rng),
		NewReLU("relu4"),
		NewDense("fc2", 64, classes, rng),
	)
}

// NewMiniVGG builds a width-reduced VGG11-style network for the CIFAR-like
// task: eight convolutional layers in conv/conv/pool blocks followed by
// three dense layers. This stands in for the paper's VGG11 (see DESIGN.md:
// the defense only needs the "many redundant late-conv channels" property,
// which this topology preserves at pure-Go training cost).
func NewMiniVGG(in Input, classes int, rng *rand.Rand) *Sequential {
	mk := func(name string, c, h, w, f int) *Conv2D {
		return NewConv2D(name, tensor.ConvDims{C: c, H: h, W: w, K: 3, Stride: 1, Pad: 1}, f, rng)
	}
	h, w := in.H, in.W
	c1 := mk("conv1", in.C, h, w, 8)
	h, w = h/2, w/2
	c2 := mk("conv2", 8, h, w, 16)
	h, w = h/2, w/2
	c3 := mk("conv3", 16, h, w, 16)
	c4 := mk("conv4", 16, h, w, 16)
	h, w = h/2, w/2
	c5 := mk("conv5", 16, h, w, 32)
	c6 := mk("conv6", 32, h, w, 32)
	c7 := mk("conv7", 32, h, w, 32)
	c8 := mk("conv8", 32, h, w, 32)
	h, w = h/2, w/2
	flat := 32 * h * w
	// Batch normalization follows convs 1-7 for trainability at depth; the
	// prune/AW target conv8 stays normalization-free so the defense's
	// weight statistics match the paper's plain-VGG setting.
	return NewSequential(
		c1, NewBatchNorm2D("bn1", 8), NewReLU("relu1"), NewMaxPool2D("pool1", 2, 2),
		c2, NewBatchNorm2D("bn2", 16), NewReLU("relu2"), NewMaxPool2D("pool2", 2, 2),
		c3, NewBatchNorm2D("bn3", 16), NewReLU("relu3"),
		c4, NewBatchNorm2D("bn4", 16), NewReLU("relu4"), NewMaxPool2D("pool3", 2, 2),
		c5, NewBatchNorm2D("bn5", 32), NewReLU("relu5"),
		c6, NewBatchNorm2D("bn6", 32), NewReLU("relu6"),
		c7, NewBatchNorm2D("bn7", 32), NewReLU("relu7"),
		c8, NewReLU("relu8"), NewMaxPool2D("pool4", 2, 2),
		NewFlatten("flatten"),
		NewDense("fc1", flat, 48, rng),
		NewReLU("relu9"),
		NewDense("fc2", 48, 48, rng),
		NewReLU("relu10"),
		NewDense("fc3", 48, classes, rng),
	)
}

// ModelBuilder constructs a fresh model for a given input geometry. The
// federated experiments use it to seed identical architectures everywhere.
type ModelBuilder func(in Input, classes int, rng *rand.Rand) *Sequential
