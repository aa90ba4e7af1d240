package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"stash"
	"stash/internal/geohash"
	"stash/internal/temporal"
	"stash/internal/workload"
)

// workloadRunner is one traffic mix. Its inputs are generated from the
// workload seed before the first cluster is assembled.
type workloadRunner interface {
	tailPct() float64
	// warmup runs the untimed part of set-up on a freshly assembled cluster.
	warmup(ctx context.Context, h *harness) error
	// run drives the timed window of length d.
	run(ctx context.Context, h *harness, sl *slicer, d time.Duration) (window, error)
	// answers returns the answers to check against the oracle; it may issue
	// a verification pass on the still-running cluster.
	answers(ctx context.Context, h *harness) ([]sample, error)
}

type reqRecord struct {
	lat    time.Duration
	status status
	slice  int // the slice of the window the request is counted in
}

// window is what one timed run leaves behind.
type window struct {
	recs    []reqRecord
	open    bool            // open loop: slices are counted by scheduled send
	late    []time.Duration // open loop: generator lateness per arrival
	drained int             // open loop: requests cut off after the drain grace
}

func newWorkload(name string, seed int64, c constants, seconds int) (workloadRunner, error) {
	rng := func(purpose int64) *rand.Rand { return rand.New(rand.NewSource(seed*1000 + purpose)) }
	switch name {
	case "explore":
		return newExplore(rng(1), c), nil
	case "scan":
		return newScan(rng(2), c, seconds)
	case "hotspot":
		return newHotspot(rng(3), c, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want explore, scan or hotspot)", name)
}

// parallel runs fn once per worker and waits for all of them.
func parallel(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// closedLoop runs workers that each send their next request only when the
// previous one has been answered. After d has passed each worker finishes
// its current script of scriptLen requests, so the figures cover whole
// scripts; requests count in the slice they are answered in.
func closedLoop(ctx context.Context, h *harness, sl *slicer, workers, scriptLen int, d time.Duration,
	next func(w, i int) stash.Query, smp *sampler) window {
	until := time.Now().Add(d)
	per := make([][]reqRecord, workers)
	parallel(workers, func(w int) {
		for i := 0; ctx.Err() == nil && (i%scriptLen != 0 || time.Now().Before(until)); i++ {
			q := next(w, i)
			t0 := time.Now()
			s := h.serve(ctx, q, nil, sl.traced())
			done := time.Now()
			per[w] = append(per[w], reqRecord{done.Sub(t0), s.status, sl.index(done)})
			h.acct.add(s)
			smp.offer(w, i, q, s)
		}
	})
	var win window
	for _, p := range per {
		win.recs = append(win.recs, p...)
	}
	return win
}

// --- explore: warm interactive dashboard sessions, one per region ---

// The sessions' regions are fixed so that every seed fans out to the same
// owners over the same number of cells; the seed draws the pans.

type explore struct {
	c       constants
	scripts [][]stash.Query
	smp     *sampler
}

func newExplore(rng *rand.Rand, c constants) *explore {
	e := &explore{c: c, smp: newSampler(len(c.Explore.Regions), c.Explore.SampleStride, c.Explore.SampleCells)}
	x := c.Explore
	dLat, dLon := workload.Country.Extent()
	for _, corner := range x.Regions {
		overview := stash.Query{
			Box:         geohash.Box{MinLat: corner[0], MaxLat: corner[0] + dLat, MinLon: corner[1], MaxLon: corner[1] + dLon},
			Time:        workload.DefaultDay(),
			SpatialRes:  workload.DefaultSpatialRes,
			TemporalRes: temporal.Day,
		}
		script := workload.DicingDescending(overview, x.DiceSteps, x.DiceFraction)
		pans := workload.PanningSession(script[len(script)-1], x.Pans, x.PanFraction, rng)[1:]
		script = append(script, pans...)
		focus := pans[len(pans)-1]
		script = append(script, workload.DrillDownSession(focus, x.DrillFrom, x.DrillTo)...)
		script = append(script, workload.RollUpSession(focus, x.DrillFrom, x.DrillTo)[1:]...)
		e.scripts = append(e.scripts, script)
	}
	return e
}

func (e *explore) tailPct() float64 { return e.c.Explore.TailPct }

func (e *explore) warmup(ctx context.Context, h *harness) error {
	for _, script := range e.scripts {
		for _, q := range script {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			h.serve(ctx, q, nil, false)
		}
	}
	return nil
}

func (e *explore) run(ctx context.Context, h *harness, sl *slicer, d time.Duration) (window, error) {
	next := func(w, i int) stash.Query { return e.scripts[w][i%len(e.scripts[w])] }
	return closedLoop(ctx, h, sl, len(e.scripts), len(e.scripts[0]), d, next, e.smp), ctx.Err()
}

func (e *explore) answers(context.Context, *harness) ([]sample, error) { return e.smp.kept, nil }

// --- scan: cold county queries, each on a day nothing touched before ---

type scan struct {
	c     constants
	rects []geohash.Box
	first time.Time
	next  atomic.Int64
	smp   *sampler
}

func newScan(rng *rand.Rand, c constants, seconds int) (*scan, error) {
	first, err := time.Parse(time.DateOnly, c.Scan.FirstDay)
	if err != nil {
		return nil, fmt.Errorf("scan first_day: %w", err)
	}
	s := &scan{c: c, first: first, smp: newSampler(c.Scan.Clients, c.Scan.SampleStride, c.Scan.SampleCells)}
	// Rectangles repeat after this many requests; days never do.
	n := c.SetupReps*c.Scan.Warmup + 1000*seconds
	for i := 0; i < n; i++ {
		s.rects = append(s.rects, workload.RandomQuery(rng, workload.County).Box)
	}
	return s, nil
}

func (s *scan) tailPct() float64 { return s.c.Scan.TailPct }

// query returns the next request: a county rectangle on a fresh day.
func (s *scan) query() stash.Query {
	i := s.next.Add(1) - 1
	day := s.first.AddDate(0, 0, int(i))
	return stash.Query{
		Box:         s.rects[i%int64(len(s.rects))],
		Time:        temporal.DayRange(day.Year(), day.Month(), day.Day()),
		SpatialRes:  workload.DefaultSpatialRes,
		TemporalRes: temporal.Day,
	}
}

func (s *scan) warmup(ctx context.Context, h *harness) error {
	var left atomic.Int64
	left.Store(int64(s.c.Scan.Warmup))
	parallel(s.c.Scan.Clients, func(int) {
		for ctx.Err() == nil && left.Add(-1) >= 0 {
			h.serve(ctx, s.query(), nil, false)
		}
	})
	return ctx.Err()
}

func (s *scan) run(ctx context.Context, h *harness, sl *slicer, d time.Duration) (window, error) {
	next := func(int, int) stash.Query { return s.query() }
	return closedLoop(ctx, h, sl, s.c.Scan.Clients, 1, d, next, s.smp), ctx.Err()
}

func (s *scan) answers(context.Context, *harness) ([]sample, error) { return s.smp.kept, nil }

// --- hotspot: open-loop arrivals on one hot county, with block updates ---

// Geohash lengths of a Galileo storage block and of a DHT partition.
const (
	blockPrefixLen     = 3
	partitionPrefixLen = 2
)

type hotspot struct {
	c       constants
	queries []stash.Query   // warm-up queries first, then one per arrival
	gaps    []time.Duration // Poisson inter-arrival times
	updates []blockUpdate   // the blocks successive updates rewrite
}

func newHotspot(rng *rand.Rand, c constants, seconds int) (*hotspot, error) {
	x := c.Hotspot
	arrivals := int(x.RatePerS*float64(seconds))*2 + 64
	h := &hotspot{c: c}
	h.queries = workload.HotspotWorkload(rng, workload.County, x.Warmup+arrivals, x.PanFraction)
	// Move the whole hotspot so the start box is centred on its DHT
	// partition (2-character geohash): every seed then has the same four
	// storage blocks, one owner node and the same cells under the hot box,
	// and only the location, pans, arrivals and updated blocks vary.
	hot := h.queries[0]
	cLat, cLon := hot.Box.Center()
	part, err := geohash.DecodeBox(geohash.Encode(cLat, cLon, partitionPrefixLen))
	if err != nil {
		return nil, fmt.Errorf("hot partition: %w", err)
	}
	bLat, bLon := part.Center()
	for i := range h.queries {
		b := &h.queries[i].Box
		b.MinLat, b.MaxLat = b.MinLat+bLat-cLat, b.MaxLat+bLat-cLat
		b.MinLon, b.MaxLon = b.MinLon+bLon-cLon, b.MaxLon+bLon-cLon
	}
	hot = h.queries[0]
	for i := 0; i < arrivals; i++ {
		h.gaps = append(h.gaps, time.Duration(rng.ExpFloat64()/x.RatePerS*float64(time.Second)))
	}
	blocks, err := geohash.Cover(hot.Box, blockPrefixLen)
	if err != nil {
		return nil, fmt.Errorf("hot box blocks: %w", err)
	}
	day := temporal.At(hot.Time.Start, temporal.Day)
	for i := 0; i < arrivals/x.UpdateEvery+1; i++ {
		h.updates = append(h.updates, blockUpdate{prefix: blocks[rng.Intn(len(blocks))], day: day})
	}
	return h, nil
}

func (o *hotspot) tailPct() float64 { return o.c.Hotspot.TailPct }

func (o *hotspot) warmup(ctx context.Context, h *harness) error {
	var next atomic.Int64
	parallel(o.c.Hotspot.WarmupWorkers, func(int) {
		for ctx.Err() == nil {
			i := next.Add(1) - 1
			if i >= int64(o.c.Hotspot.Warmup) {
				return
			}
			h.serve(ctx, o.queries[i], nil, false)
		}
	})
	return ctx.Err()
}

// run is the open loop: one generator issues arrivals on the Poisson
// schedule whatever the system's state, and each arrival is timed from its
// scheduled send. After the window, in-flight requests get drain_grace_ms to
// finish; any still running are cancelled and count as failed.
func (o *hotspot) run(ctx context.Context, h *harness, sl *slicer, d time.Duration) (window, error) {
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	x := o.c.Hotspot
	recs := make([]reqRecord, len(o.gaps))
	late := make([]time.Duration, 0, len(o.gaps))
	var wg sync.WaitGroup
	var inflight atomic.Int64
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	start := time.Now()
	end, sched := start.Add(d), start
	n := 0
gen:
	for ; n < len(o.gaps); n++ {
		sched = sched.Add(o.gaps[n])
		if !sched.Before(end) {
			break
		}
		if wait := time.Until(sched); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				break gen
			}
		}
		late = append(late, time.Since(sched))
		var upd *blockUpdate
		if (n+1)%x.UpdateEvery == 0 {
			upd = &o.updates[n/x.UpdateEvery]
		}
		wg.Add(1)
		inflight.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			s := h.serve(reqCtx, o.queries[x.Warmup+i], upd, sl.traced())
			recs[i] = reqRecord{time.Since(sched), s.status, sl.index(sched)}
			h.acct.add(s)
		}(n, sched)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	grace := time.NewTimer(time.Duration(x.DrainGraceMS) * time.Millisecond)
	defer grace.Stop()
	win := window{open: true, late: late}
	select {
	case <-done:
	case <-grace.C:
		win.drained = int(inflight.Load())
		cancel()
		<-done
	}
	win.recs = recs[:n]
	return win, ctx.Err()
}

// answers re-issues a spread of the hot queries once every update has been
// applied and population has settled, so each answer has one right value.
func (o *hotspot) answers(ctx context.Context, h *harness) ([]sample, error) {
	if err := h.settle(ctx); err != nil {
		return nil, err
	}
	n := o.c.Hotspot.VerifyQueries
	stride := (len(o.queries) - o.c.Hotspot.Warmup) / n
	var out []sample
	for i := 0; i < n; i++ {
		q := o.queries[o.c.Hotspot.Warmup+i*stride]
		res, err := h.sys.Client().QueryContext(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("verification query %v: %w", q, err)
		}
		out = append(out, compact(q, res))
	}
	return out, nil
}
