package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// verdict is how one (workload, metric) pair of two result sets compares.
type verdict string

const (
	verdictAgree      verdict = "agree"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved (spread > bound)"
)

// compareBound judges the second set's samples against the first's. b has
// regressed when its median is worse than a's by more than the metric's
// bound, as a share of a's median. When either side's own run-to-run spread
// (interquartile distance over median) is wider than the bound, the pair
// cannot be told apart at that bound and is unresolved. It also returns the
// worsening as a share of a's median (negative: b is better).
func compareBound(def metricDef, a, b []float64) (verdict, float64) {
	ma, mb := median(a), median(b)
	worse := 0.0
	if ma != 0 {
		worse = (mb - ma) / ma
		if def.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case spreadShare(a) > def.Bound || spreadShare(b) > def.Bound:
		return verdictUnresolved, worse
	case worse > def.Bound:
		return verdictRegressed, worse
	}
	return verdictAgree, worse
}

// resultSet is every untraced run found at one -agree argument: samples by
// workload and end-to-end metric, and each workload's defended-model hash by
// seed.
type resultSet struct {
	samples map[string]map[string][]float64
	hashes  map[string]map[int64]string
}

// loadResultSet reads a result file, or every results-*.json in a directory.
func loadResultSet(path string) (*resultSet, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "results-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	}
	rs := &resultSet{samples: map[string]map[string][]float64{}, hashes: map[string]map[int64]string{}}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range f.Runs {
			if r.Traced {
				continue // a traced run's end-to-end numbers come from a shortened section
			}
			if rs.samples[r.Workload] == nil {
				rs.samples[r.Workload] = map[string][]float64{}
				rs.hashes[r.Workload] = map[int64]string{}
			}
			for name, m := range r.EndToEnd {
				rs.samples[r.Workload][name] = append(rs.samples[r.Workload][name], m.Value)
			}
			if hs, ok := r.Info["defended_model_hash"].([]any); ok && len(hs) > 0 {
				rs.hashes[r.Workload][r.Seed] = fmt.Sprint(hs[0])
			}
		}
	}
	if len(rs.samples) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs found", path)
	}
	return rs, nil
}

// runAgree compares two result sets pair by pair and returns the exit code:
// 0 when every pair agrees and every shared model hash matches.
func runAgree(w io.Writer, pathA, pathB string) int {
	a, err := loadResultSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	disagreements := 0
	for _, wl := range workloadNames {
		if a.samples[wl] == nil || b.samples[wl] == nil {
			continue
		}
		for _, def := range endToEnd {
			sa, sb := a.samples[wl][def.Name], b.samples[wl][def.Name]
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			v, worse := compareBound(def, sa, sb)
			if v != verdictAgree {
				disagreements++
			}
			fmt.Fprintf(w, "%s %s %s: A median %.6g (n=%d, spread %.1f%%), B median %.6g (n=%d, spread %.1f%%), worse by %+.1f%% of A, bound %.0f%%\n",
				wl, def.Name, v, median(sa), len(sa), 100*spreadShare(sa), median(sb), len(sb), 100*spreadShare(sb), 100*worse, 100*def.Bound)
		}
		for seed, ha := range a.hashes[wl] {
			if hb, ok := b.hashes[wl][seed]; ok && ha != hb {
				disagreements++
				fmt.Fprintf(w, "%s defended_model_hash seed %d: A %s, B %s: differs\n", wl, seed, ha, hb)
			}
		}
	}
	if disagreements > 0 {
		fmt.Fprintf(w, "%d disagreements\n", disagreements)
		return 1
	}
	return 0
}
