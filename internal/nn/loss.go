package nn

import (
	"fmt"
	"math"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// SoftmaxXent computes the mean softmax cross-entropy loss of logits
// (shape (N, classes)) against integer labels, together with the gradient
// of the loss with respect to the logits. The softmax is computed with the
// max-subtraction trick for numerical stability.
func SoftmaxXent(logits *tensor.Tensor, labels []int) (loss float64, dlogits *tensor.Tensor) {
	dlogits = tensor.New(logits.Dim(0), logits.Dim(1))
	loss = SoftmaxXentInto(dlogits, logits, labels)
	return loss, dlogits
}

// SoftmaxXentInto is SoftmaxXent writing the logits gradient into dst
// (shape (N, classes), every element overwritten) and returning the loss.
// Training loops pass a reusable dst so a warm step allocates nothing.
func SoftmaxXentInto(dst, logits *tensor.Tensor, labels []int) (loss float64) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: SoftmaxXent logits rank %d, want 2", logits.Rank()))
	}
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: SoftmaxXent %d labels for batch of %d", len(labels), n))
	}
	if dst.Rank() != 2 || dst.Dim(0) != n || dst.Dim(1) != c {
		panic(fmt.Sprintf("nn: SoftmaxXentInto dst shape %v, want [%d %d]", dst.Shape(), n, c))
	}
	dlogits := dst
	inv := 1.0 / float64(n)
	for s := 0; s < n; s++ {
		y := labels[s]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: SoftmaxXent label %d out of range [0,%d)", y, c))
		}
		row := logits.Data[s*c : (s+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		drow := dlogits.Data[s*c : (s+1)*c]
		for j, v := range row {
			e := math.Exp(v - maxv)
			drow[j] = e
			sum += e
		}
		loss += float64(-(row[y] - maxv - math.Log(sum)) * inv) // rounded, never fused
		for j := range drow {
			drow[j] = drow[j] / sum * inv
		}
		drow[y] -= inv
	}
	return loss
}

// Argmax returns the predicted class of every row of logits.
func Argmax(logits *tensor.Tensor) []int {
	return ArgmaxInto(make([]int, logits.Dim(0)), logits)
}

// ArgmaxInto is Argmax writing into dst, which is grown when too small and
// returned resliced to the row count. Passing the previous call's result
// back in makes a warm evaluation loop allocation-free.
func ArgmaxInto(dst []int, logits *tensor.Tensor) []int {
	n, c := logits.Dim(0), logits.Dim(1)
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for s := 0; s < n; s++ {
		row := logits.Data[s*c : (s+1)*c]
		best, bestJ := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bestJ = v, j+1
			}
		}
		dst[s] = bestJ
	}
	return dst
}
