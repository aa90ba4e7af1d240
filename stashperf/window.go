package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// slicer splits the timed window into equal slices and marks process CPU
// time and allocation counters at every boundary. An open loop's end-to-end
// figures are medians over the slices, so one disturbed slice does not move
// them. A closed loop's are taken over the whole window: its scripts mix
// small and large requests, and only whole scripts give the exact mix. In a
// traced run the odd slices carry traces and the even ones do not, which
// measures the tracing overhead on the same cluster and traffic.
type slicer struct {
	start   time.Time
	width   time.Duration
	k       int
	tracing bool
	marks   []mark // written by the sampler until done closes, then by stop
	stopc   chan struct{}
	done    chan struct{}
}

type mark struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
}

func takeMark() mark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return mark{at: time.Now(), cpu: cpuTime(), alloc: m.TotalAlloc, mallocs: m.Mallocs}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startSlicer(d time.Duration, k int, tracing bool) *slicer {
	s := &slicer{width: d / time.Duration(k), k: k, tracing: tracing,
		stopc: make(chan struct{}), done: make(chan struct{})}
	s.marks = []mark{takeMark()}
	s.start = s.marks[0].at
	go func() {
		defer close(s.done)
		t := time.NewTimer(s.width)
		defer t.Stop()
		for i := 1; i < k; i++ {
			select {
			case <-t.C:
			case <-s.stopc:
				return
			}
			s.marks = append(s.marks, takeMark())
			t.Reset(time.Until(s.start.Add(time.Duration(i+1) * s.width)))
		}
	}()
	return s
}

// stop ends the last slice once the last request has been answered.
func (s *slicer) stop() {
	close(s.stopc)
	<-s.done
	s.marks = append(s.marks, takeMark())
}

// index returns the slice t falls in; times past the end count in the last.
func (s *slicer) index(t time.Time) int {
	return min(max(int(t.Sub(s.start)/s.width), 0), s.k-1)
}

func (s *slicer) traced() bool {
	return s.tracing && s.index(time.Now())%2 == 1
}

// sliceFigures are one slice's end-to-end figures.
type sliceFigures struct {
	answered int
	qps      float64
	p50      float64
	tail     float64
	beyond   int
	cpuMS    float64 // per answered request
	allocKB  float64
	allocs   float64
}

// slices computes each slice's figures from the request records.
func (s *slicer) slices(win window, tailPct float64) []sliceFigures {
	n := len(s.marks) - 1
	recs := make([][]reqRecord, n)
	for _, r := range win.recs {
		i := min(r.slice, n-1)
		recs[i] = append(recs[i], r)
	}
	out := make([]sliceFigures, n)
	for i := range out {
		dur := s.marks[i+1].at.Sub(s.marks[i].at)
		if win.open {
			dur = s.width
		}
		out[i] = figures(recs[i], s.marks[i], s.marks[i+1], dur, tailPct)
	}
	return out
}

// whole computes the figures of the window as one piece.
func (s *slicer) whole(win window, tailPct float64) sliceFigures {
	a, b := s.marks[0], s.marks[len(s.marks)-1]
	return figures(win.recs, a, b, b.at.Sub(a.at), tailPct)
}

// figures summarizes requests answered between marks a and b over dur. A
// failed request counts as slower than any answer (math.MaxFloat64, which
// unlike an infinity survives JSON encoding).
func figures(recs []reqRecord, a, b mark, dur time.Duration, tailPct float64) sliceFigures {
	var f sliceFigures
	lats := make([]float64, 0, len(recs))
	for _, r := range recs {
		if r.status == statusError {
			lats = append(lats, math.MaxFloat64)
			continue
		}
		lats = append(lats, ms(r.lat))
		f.answered++
	}
	sort.Float64s(lats)
	f.qps = float64(f.answered) / dur.Seconds()
	f.p50, _ = percentile(lats, 50)
	f.tail, f.beyond = percentile(lats, tailPct)
	per := float64(max(f.answered, 1))
	f.cpuMS = ms(b.cpu-a.cpu) / per
	f.allocKB = float64(b.alloc-a.alloc) / 1024 / per
	f.allocs = float64(b.mallocs-a.mallocs) / per
	return f
}

// overheadPct is the extra CPU per answered request of traced slices over
// untraced ones, in percent.
func (s *slicer) overheadPct(fs []sliceFigures) float64 {
	var cpu, n [2]float64
	for i, f := range fs {
		cpu[i%2] += f.cpuMS * float64(f.answered)
		n[i%2] += float64(f.answered)
	}
	if !s.tracing || n[0] == 0 || n[1] == 0 || cpu[0] == 0 {
		return 0
	}
	return 100 * ((cpu[1]/n[1])/(cpu[0]/n[0]) - 1)
}

// percentile returns the nearest-rank p-th percentile of sorted values and
// how many samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return sorted[i], len(sorted) - 1 - i
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
