package main

import (
	"fmt"
	"io"
	"sync"

	"stash"
	"stash/internal/cell"
	"stash/internal/namgen"
	"stash/internal/oracle"
	"stash/internal/query"
)

// sample is a compact copy of one served answer: fixed attribute slots
// instead of per-cell maps, so holding it adds little to the live heap the
// benchmark measures.
type sample struct {
	q     stash.Query
	cov   query.Coverage
	cells []sampleCell
}

type sampleCell struct {
	key   cell.Key
	stats [4]cell.Stat // in namgen.Attributes order; Count 0 = absent
}

func compact(q stash.Query, r stash.Result) sample {
	s := sample{q: q, cov: r.Coverage, cells: make([]sampleCell, 0, len(r.Cells))}
	for k, sum := range r.Cells {
		c := sampleCell{key: k}
		for i, attr := range namgen.Attributes {
			c.stats[i] = sum.Stats[attr]
		}
		s.cells = append(s.cells, c)
	}
	return s
}

func (s sample) result() stash.Result {
	r := query.NewResultCap(len(s.cells))
	r.Coverage = s.cov
	for _, c := range s.cells {
		sum := cell.NewSummary()
		for i, attr := range namgen.Attributes {
			if c.stats[i].Count > 0 {
				sum.Stats[attr] = c.stats[i]
			}
		}
		r.Cells[c.key] = sum
	}
	return r
}

// sampler keeps each worker's every stride-th answer until the worker's
// share of the cell budget is spent, so which answers are kept depends only
// on the workload seed. The check itself runs after the timed window.
type sampler struct {
	stride int
	budget int // cells per worker

	mu    sync.Mutex
	cells []int // per worker
	kept  []sample
}

func newSampler(workers, stride, budget int) *sampler {
	return &sampler{stride: max(stride, 1), budget: budget / workers, cells: make([]int, workers)}
}

func (s *sampler) offer(w, i int, q stash.Query, sv served) {
	if sv.status == statusError || i%s.stride != 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cells[w]+len(sv.res.Cells) > s.budget {
		return
	}
	s.cells[w] += len(sv.res.Cells)
	s.kept = append(s.kept, compact(q, sv.res))
}

// checkReport is the outcome of the oracle pass.
type checkReport struct {
	answers    int
	cells      int
	mismatches int
	selfTest   bool // a corrupted copy of a checked answer was caught
}

// checkSamples compares every kept answer with the oracle's recomputation,
// printing the diffs of any mismatch to w. As a self-test it then corrupts
// one cell of the first clean answer and requires the check to catch it.
func checkSamples(o *oracle.Oracle, samples []sample, w io.Writer) (checkReport, error) {
	var rep checkReport
	tested := false
	for _, s := range samples {
		want, err := o.Query(s.q)
		if err != nil {
			return rep, fmt.Errorf("oracle %v: %w", s.q, err)
		}
		got := s.result()
		rep.answers++
		rep.cells += len(got.Cells)
		if diffs := oracle.Check(got, want); len(diffs) > 0 {
			rep.mismatches++
			fmt.Fprintf(w, "oracle mismatch on %v (%d diffs):\n%s", s.q, len(diffs), oracle.FormatDiffs(diffs, 10))
			continue
		}
		if !tested && len(s.cells) > 0 && got.Coverage.Complete() {
			tested = true
			// One more observation in one cell than the data holds. got was
			// rebuilt from the sample, so corrupting it in place is safe.
			c := s.cells[0]
			sum := got.Cells[c.key]
			st := sum.Stats[namgen.Attributes[0]]
			st.Count++
			sum.Stats[namgen.Attributes[0]] = st
			rep.selfTest = len(oracle.Check(got, want)) > 0
		}
	}
	return rep, nil
}
