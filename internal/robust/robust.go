// Package robust implements the Byzantine-robust aggregation rules the
// paper's related-work section evaluates against backdoor attacks: Krum
// and Multi-Krum (Blanchard et al.), Bulyan (El Mhamdi et al.),
// coordinate-wise trimmed mean and coordinate-wise median (Yin et al.).
// All satisfy internal/fl.Aggregator, so they drop into the federated
// server in place of plain averaging; those defined only on a minimum
// number of updates state it as fl.CohortMinimum, and the server discards
// a round that delivers fewer.
//
// The paper (and the works it cites) reports that these rules fail to stop
// model-replacement backdoors under non-IID data; examples/robust_agg
// measures each rule's TA and AA against one such attacker.
package robust

import (
	"fmt"
	"sort"

	"github.com/fedcleanse/fedcleanse/internal/fl"
)

// Krum selects the single update minimizing the Krum score: the sum of
// squared distances to its n−f−2 nearest neighbours, where f is the
// assumed number of Byzantine clients.
type Krum struct {
	// F is the assumed number of Byzantine clients.
	F int
}

var (
	_ fl.Aggregator    = Krum{}
	_ fl.CohortMinimum = Krum{}
)

// MinUpdates implements fl.CohortMinimum: a Krum score sums the distances
// to at least one other update.
func (Krum) MinUpdates() int { return 2 }

// Aggregate implements fl.Aggregator: it returns the single selected
// update (Krum discards all others).
func (k Krum) Aggregate(deltas [][]float64) []float64 {
	idx := k.Select(deltas, 1)
	out := make([]float64, len(deltas[idx[0]]))
	copy(out, deltas[idx[0]])
	return out
}

// Select returns the indices of the m updates with the lowest Krum scores,
// best first.
func (k Krum) Select(deltas [][]float64, m int) []int {
	n := len(deltas)
	if n == 0 {
		panic("robust: Krum with no updates")
	}
	if m <= 0 || m > n {
		panic(fmt.Sprintf("robust: Krum selecting %d of %d", m, n))
	}
	// Pairwise squared distances.
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := sqDist(deltas[i], deltas[j])
			d2[i][j], d2[j][i] = s, s
		}
	}
	// Number of neighbours counted in the score: n − f − 2 (at least 1).
	nb := n - k.F - 2
	if nb < 1 {
		nb = 1
	}
	type scored struct {
		idx   int
		score float64
	}
	scores := make([]scored, n)
	for i := 0; i < n; i++ {
		ds := append([]float64(nil), d2[i]...)
		ds[i] = 0
		sort.Float64s(ds)
		// ds[0] is the zero self-distance; neighbours start at ds[1].
		s := 0.0
		for _, v := range ds[1 : nb+1] {
			s += v
		}
		scores[i] = scored{i, s}
	}
	sort.Slice(scores, func(a, b int) bool { return scores[a].score < scores[b].score })
	out := make([]int, m)
	for i := 0; i < m; i++ {
		out[i] = scores[i].idx
	}
	return out
}

// MultiKrum averages the M best updates under the Krum score.
type MultiKrum struct {
	F int
	// M is the number of selected updates to average (0 means n−f).
	M int
}

var (
	_ fl.Aggregator    = MultiKrum{}
	_ fl.CohortMinimum = MultiKrum{}
)

// MinUpdates implements fl.CohortMinimum: Krum's.
func (MultiKrum) MinUpdates() int { return 2 }

// Aggregate implements fl.Aggregator.
func (mk MultiKrum) Aggregate(deltas [][]float64) []float64 {
	n := len(deltas)
	m := mk.M
	if m == 0 {
		m = n - mk.F
	}
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	sel := Krum{F: mk.F}.Select(deltas, m)
	out := make([]float64, len(deltas[0]))
	for _, i := range sel {
		for j, v := range deltas[i] {
			out[j] += v
		}
	}
	inv := 1.0 / float64(len(sel))
	for j := range out {
		out[j] *= inv
	}
	return out
}

// TrimmedMean averages each coordinate after discarding the Trim largest
// and Trim smallest values.
type TrimmedMean struct {
	// Trim values are removed from each end per coordinate.
	Trim int
}

var (
	_ fl.Aggregator    = TrimmedMean{}
	_ fl.CohortMinimum = TrimmedMean{}
)

// MinUpdates implements fl.CohortMinimum: one value survives trimming Trim
// from each end.
func (t TrimmedMean) MinUpdates() int { return 2*t.Trim + 1 }

// Aggregate implements fl.Aggregator.
func (t TrimmedMean) Aggregate(deltas [][]float64) []float64 {
	n := len(deltas)
	if n == 0 {
		panic("robust: TrimmedMean with no updates")
	}
	if 2*t.Trim >= n {
		panic(fmt.Sprintf("robust: trimming %d from each end of %d updates", t.Trim, n))
	}
	dim := len(deltas[0])
	out := make([]float64, dim)
	col := make([]float64, n)
	for j := 0; j < dim; j++ {
		for i, d := range deltas {
			col[i] = d[j]
		}
		sort.Float64s(col)
		s := 0.0
		for _, v := range col[t.Trim : n-t.Trim] {
			s += v
		}
		out[j] = s / float64(n-2*t.Trim)
	}
	return out
}

// Median aggregates with the coordinate-wise median.
type Median struct{}

var _ fl.Aggregator = Median{}

// Aggregate implements fl.Aggregator.
func (Median) Aggregate(deltas [][]float64) []float64 {
	n := len(deltas)
	if n == 0 {
		panic("robust: Median with no updates")
	}
	dim := len(deltas[0])
	out := make([]float64, dim)
	col := make([]float64, n)
	for j := 0; j < dim; j++ {
		for i, d := range deltas {
			col[i] = d[j]
		}
		sort.Float64s(col)
		if n%2 == 1 {
			out[j] = col[n/2]
		} else {
			out[j] = (col[n/2-1] + col[n/2]) / 2
		}
	}
	return out
}

// Bulyan composes Multi-Krum selection with a trimmed-mean reduction: it
// repeatedly selects updates by Krum score until θ = n − 2f are chosen,
// then aggregates each coordinate by averaging the β = θ − 2f values
// closest to the coordinate median.
type Bulyan struct {
	F int
}

var (
	_ fl.Aggregator    = Bulyan{}
	_ fl.CohortMinimum = Bulyan{}
)

// MinUpdates implements fl.CohortMinimum: Krum's, for the selection.
func (Bulyan) MinUpdates() int { return 2 }

// Aggregate implements fl.Aggregator.
func (b Bulyan) Aggregate(deltas [][]float64) []float64 {
	n := len(deltas)
	if n == 0 {
		panic("robust: Bulyan with no updates")
	}
	theta := n - 2*b.F
	if theta < 1 {
		theta = 1
	}
	sel := Krum{F: b.F}.Select(deltas, theta)
	beta := theta - 2*b.F
	if beta < 1 {
		beta = 1
	}
	dim := len(deltas[0])
	out := make([]float64, dim)
	col := make([]float64, len(sel))
	for j := 0; j < dim; j++ {
		for i, idx := range sel {
			col[i] = deltas[idx][j]
		}
		sort.Float64s(col)
		var med float64
		m := len(col)
		if m%2 == 1 {
			med = col[m/2]
		} else {
			med = (col[m/2-1] + col[m/2]) / 2
		}
		// Average the beta values closest to the median: walk outward from
		// the median position in the sorted column.
		lo := sort.SearchFloat64s(col, med)
		if lo >= m {
			lo = m - 1
		}
		hi := lo
		count, sum := 0, 0.0
		take := func(v float64) { sum += v; count++ }
		take(col[lo])
		for count < beta {
			left := lo - 1
			right := hi + 1
			switch {
			case left >= 0 && right < m:
				if med-col[left] <= col[right]-med {
					take(col[left])
					lo = left
				} else {
					take(col[right])
					hi = right
				}
			case left >= 0:
				take(col[left])
				lo = left
			case right < m:
				take(col[right])
				hi = right
			default:
				count = beta // column exhausted
			}
		}
		out[j] = sum / float64(count)
	}
	return out
}

// sqDist returns the squared Euclidean distance between two vectors.
func sqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("robust: vector length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}
