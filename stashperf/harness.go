package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"stash"
	"stash/internal/cluster"
	"stash/internal/export"
	"stash/internal/obs"
	"stash/internal/oracle"
	"stash/internal/temporal"
)

type status int

const (
	statusOK status = iota
	statusPartial
	statusError
)

// harness is one assembled cluster plus the per-query telemetry stashd
// installs around it.
type harness struct {
	sys     *stash.Cluster
	health  *cluster.Health
	sleeper stash.Sleeper
	rec     *obs.FlightRecorder
	slow    *obs.SlowLog
	oracle  *oracle.Oracle
	acct    *accounting

	stopOnce sync.Once
}

func assemble(datasetSeed uint64) (*harness, error) {
	sl := stash.NewRealSleeper()
	sys, err := stash.NewCluster(shippedConfig(datasetSeed, sl))
	if err != nil {
		return nil, fmt.Errorf("assemble cluster: %w", err)
	}
	sys.Start()
	health := cluster.NewHealth(nil, shippedHealth())
	health.Monitor.Start()
	return &harness{
		sys:     sys,
		health:  health,
		sleeper: sl,
		rec:     obs.NewFlightRecorder(flightRecCap),
		// stashd logs slow queries to stderr; the benchmark keeps the JSON
		// encoding but discards the line so the report stays readable.
		slow:   obs.NewSlowLog(slowThreshold, slowRingCap, io.Discard),
		oracle: oracle.ForCluster(sys),
		acct:   newAccounting(),
	}, nil
}

// stop joins the health monitor and every node goroutine. Idempotent.
func (h *harness) stop() {
	h.stopOnce.Do(func() {
		h.health.Monitor.Stop()
		h.sys.Stop()
	})
}

// settle waits until background population has stopped inserting cells:
// the populated-cell count must hold still for four polls in a row.
func (h *harness) settle(ctx context.Context) error {
	const poll = 50 * time.Millisecond
	deadline := time.Now().Add(60 * time.Second)
	last, still := h.sys.TotalStats().PopulatedCells, 0
	t := time.NewTicker(poll)
	defer t.Stop()
	for still < 4 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		if time.Now().After(deadline) {
			return errors.New("population did not settle within 60s")
		}
		if cur := h.sys.TotalStats().PopulatedCells; cur == last {
			still++
		} else {
			last, still = cur, 0
		}
	}
	return nil
}

// blockUpdate names one block an arrival rewrites before its query.
type blockUpdate struct {
	prefix string
	day    temporal.Label
}

// served is what one request leaves behind for accounting, which the caller
// does after it has taken the request's latency.
type served struct {
	res     stash.Result
	status  status
	prof    obs.ProfileData
	record  time.Duration
	encode  time.Duration
	bytes   int64
	updated bool
	trace   *obs.Trace
}

// serve runs one request the way stashd's handler does with default flags:
// profile installed, query, profile recorded into the flight recorder and
// slow log, answer encoded as GeoJSON. With traced set, the request carries
// an obs.Trace and the benchmark adds its own spans around each call.
func (h *harness) serve(ctx context.Context, q stash.Query, upd *blockUpdate, traced bool) served {
	var s served
	var root *obs.Span
	if traced {
		ctx, s.trace = obs.NewTrace(ctx)
		ctx, root = obs.StartSpan(ctx, "bench.request")
	}
	if upd != nil {
		_, sp := obs.StartSpan(ctx, "ingest.update")
		h.sys.UpdateBlock(upd.prefix, upd.day)
		sp.End()
		s.updated = true
	}
	pctx, prof := obs.WithProfile(ctx)
	res, err := h.sys.Client().QueryContext(pctx, q)
	s.res = res
	switch {
	case err != nil:
		s.status = statusError
	case !res.Coverage.Complete():
		s.status = statusPartial
	}

	t0 := time.Now()
	_, sp := obs.StartSpan(ctx, "obs.record")
	s.prof = h.record(prof, s.status)
	sp.End()
	s.record = time.Since(t0)

	if s.status != statusError {
		var cw countingWriter
		t1 := time.Now()
		_, sp := obs.StartSpan(ctx, "export.encode")
		err := export.WriteGeoJSON(&cw, res)
		sp.End()
		s.encode, s.bytes = time.Since(t1), cw.n
		if err != nil {
			s.status = statusError
		}
	}
	root.End()
	return s
}

// record finishes a profile and feeds the flight recorder and slow log, as
// stashd's server.record does.
func (h *harness) record(p *obs.QueryProfile, st status) obs.ProfileData {
	p.Finish([...]string{"ok", "partial", "error"}[st])
	d := p.Data()
	d.ID = obs.NextQueryID()
	h.rec.Record(d)
	h.slow.Observe(d)
	return d
}

// countingWriter stands in for the HTTP response body.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// accounting sums per-request layer figures: profile stages and counts,
// the benchmark's own timings, and span self times of traced requests.
type accounting struct {
	mu       sync.Mutex
	requests int64
	stagesMS map[string]float64
	keys     int64
	depth    int64
	retries  int64
	derived  int64
	recordMS float64
	encodeMS float64
	bytes    int64
	updates  int64
	traced   int64
	selfMS   map[string]float64
}

func newAccounting() *accounting {
	return &accounting{stagesMS: map[string]float64{}, selfMS: map[string]float64{}}
}

func (a *accounting) add(s served) {
	var self map[string]time.Duration
	if s.trace != nil {
		self = selfTimes(s.trace.Snapshot())
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.requests++
	for _, st := range s.prof.Stages {
		a.stagesMS[st.Stage] += st.MS
	}
	a.keys += int64(s.prof.FootprintKeys)
	a.depth += s.prof.MergeFanInDepth
	a.retries += s.prof.Retries
	a.derived += s.prof.Derived
	a.recordMS += ms(s.record)
	a.encodeMS += ms(s.encode)
	a.bytes += s.bytes
	if s.updated {
		a.updates++
	}
	if s.trace != nil {
		a.traced++
		for name, d := range self {
			a.selfMS[name] += ms(d)
		}
	}
}

// selfTimes returns each span name's self time: its duration minus the part
// of it that its children cover (children may overlap, so their union).
func selfTimes(spans []obs.SpanData) map[string]time.Duration {
	type iv struct{ a, b time.Time }
	kids := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.Start.Add(s.Dur)})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		end := s.Start.Add(s.Dur)
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].a.Before(cs[j].a) })
		var covered time.Duration
		cur := s.Start
		for _, c := range cs {
			a, b := c.a, c.b
			if a.Before(cur) {
				a = cur
			}
			if b.After(end) {
				b = end
			}
			if b.After(a) {
				covered += b.Sub(a)
				cur = b
			}
		}
		out[s.Name] += s.Dur - covered
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
