// Command stashperf is the end-to-end and per-layer benchmark of the STASH
// configuration that cmd/stashd ships. It assembles the cluster through the
// public stash API exactly as stashd's main does with default flags, drives
// one seeded workload (explore, scan or hotspot) through the public client,
// encodes every answer as stashd's ?format=geojson does, and checks a
// sample of the answers against internal/oracle.
//
// Usage, from the repository root:
//
//	bash stashperf/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// traced run. The lines before it are a readable report. workloads.json
// records the constants, why each workload exists, and what the benchmark
// cannot measure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"stash/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wl      = flag.String("workload", "", "workload: explore, scan or hotspot")
		seed    = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "stashperf: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := measure(ctx, *wl, *seed, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stashperf: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stashperf: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// readRegistry flattens the process-global metrics registry: each family
// summed over its series under its name, and each series also under
// "name|labelvalue"; histograms add "_sum" entries beside their counts.
func readRegistry() map[string]float64 {
	out := map[string]float64{}
	for _, m := range obs.Default().Snapshot() {
		keys := []string{m.Name}
		for _, l := range m.Labels {
			keys = append(keys, m.Name+"|"+l.Value)
		}
		for _, k := range keys {
			out[k] += m.Value
			if m.Kind == obs.KindHistogram {
				out[k+"_sum"] += m.Sum
			}
		}
	}
	return out
}

func measure(ctx context.Context, name string, seed int64, seconds int, traced bool, out io.Writer) (result, error) {
	c, err := loadConstants()
	if err != nil {
		return result{}, err
	}
	wl, err := newWorkload(name, seed, c, seconds)
	if err != nil {
		return result{}, err
	}
	goroutines0 := runtime.NumGoroutine()

	// Set-up, several times; the last cluster is the one measured.
	var setups []float64
	var h *harness
	for rep := 0; rep < c.SetupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		hh, err := assemble(c.DatasetSeed)
		if err != nil {
			return result{}, err
		}
		err = wl.warmup(ctx, hh)
		if err == nil {
			err = hh.settle(ctx)
		}
		runtime.GC()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil || rep < c.SetupReps-1 {
			hh.stop()
			if err != nil {
				return result{}, fmt.Errorf("set-up: %w", err)
			}
			continue
		}
		h = hh
	}
	defer h.stop()

	regBefore, sleepBefore := readRegistry(), h.sleeper.Elapsed()
	sl := startSlicer(time.Duration(seconds)*time.Second, c.Slices, traced)
	win, err := wl.run(ctx, h, sl, time.Duration(seconds)*time.Second)
	sl.stop()
	if err != nil {
		return result{}, fmt.Errorf("timed window: %w", err)
	}
	regAfter, sleepAfter := readRegistry(), h.sleeper.Elapsed()
	// Twice: the first collection moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled buffers do not count as live.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	liveHeapMB := float64(mem.HeapInuse) / (1 << 20)
	queuePeak := h.sys.TotalStats().QueuePeak

	answers, err := wl.answers(ctx, h)
	if err != nil {
		return result{}, fmt.Errorf("answers: %w", err)
	}
	h.stop()
	leaked := goroutinesAfterStop(goroutines0)
	check, err := checkSamples(h.oracle, answers, out)
	if err != nil {
		return result{}, err
	}

	// End-to-end figures: a closed loop's over the whole window, an open
	// loop's the medians over its slices (see slicer); the ratios and the
	// heap always cover the whole window.
	n := len(win.recs)
	if n == 0 {
		return result{}, errors.New("no request was attempted in the timed window")
	}
	var errs, partial, sloMiss int
	slo := time.Duration(c.SLOMS * float64(time.Millisecond))
	for _, r := range win.recs {
		switch r.status {
		case statusError:
			errs++
		case statusPartial:
			partial++
		}
		if r.status != statusOK || r.lat > slo {
			sloMiss++
		}
	}
	tailPct := wl.tailPct()
	fs := sl.slices(win, tailPct)
	pieces := []sliceFigures{sl.whole(win, tailPct)}
	if win.open {
		pieces = fs
	}
	sliced := func(name, unit string, get func(sliceFigures) float64) row {
		v := make([]float64, len(pieces))
		for i, f := range pieces {
			v[i] = get(f)
		}
		if len(v) == 1 {
			return row{name, unit, v[0], "whole window"}
		}
		return row{name, unit, median(v), "median of slices: " + fmtList(v, "%.4g")}
	}
	minBeyond, minAnswered := n, n
	for _, f := range pieces {
		minBeyond, minAnswered = min(minBeyond, f.beyond), min(minAnswered, f.answered)
	}
	tailRow := sliced("latency_tail_ms", "ms", func(f sliceFigures) float64 { return f.tail })
	tailRow.note = fmt.Sprintf("p%g of >= %d samples, >= %d beyond; %s", tailPct, minAnswered, minBeyond, tailRow.note)
	e2e := []row{
		{"setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups: %s", len(setups), fmtList(setups, "%.3f"))},
		sliced("throughput_qps", "req/s", func(f sliceFigures) float64 { return f.qps }),
		sliced("latency_p50_ms", "ms", func(f sliceFigures) float64 { return f.p50 }),
		tailRow,
		{"complete_ratio", "ratio", 1 - float64(errs+partial)/float64(n), "1 - error_ratio"},
		{"slo_met_ratio", "ratio", 1 - float64(sloMiss)/float64(n), fmt.Sprintf("1 - slo_miss_ratio, limit %v", slo)},
		sliced("cpu_ms_per_req", "ms", func(f sliceFigures) float64 { return f.cpuMS }),
		sliced("alloc_kb_per_req", "KB", func(f sliceFigures) float64 { return f.allocKB }),
		sliced("allocs_per_req", "count", func(f sliceFigures) float64 { return f.allocs }),
		{"live_heap_mb", "MB", liveHeapMB, "HeapInuse after a forced GC, before Stop"},
	}
	info := []row{
		{"error_ratio", "ratio", float64(errs+partial) / float64(n), fmt.Sprintf("%d errors + %d partial / %d attempted", errs, partial, n)},
		{"slo_miss_ratio", "ratio", float64(sloMiss) / float64(n), fmt.Sprintf("%d / %d attempted", sloMiss, n)},
	}
	d := func(k string) float64 { return regAfter[k] - regBefore[k] }

	// Per-layer figures, per request served in the window.
	a := h.acct
	reqs := float64(max(a.requests, 1))
	perReq := func(v float64) float64 { return v / reqs }
	stage := func(s string) float64 { return a.stagesMS[s] / reqs }
	traceReqs := float64(max(a.traced, 1))
	hitRatio := ratio(d("stash_cache_hits_total"), d("stash_cache_hits_total")+d("stash_cache_misses_total"))
	dedup := ratio(d("stash_coalesce_dedup_keys_total"), d("stash_coalesce_batch_size|keys_sum")+d("stash_coalesce_dedup_keys_total"))
	sfShared := ratio(d("stash_node_singleflight_total|shared"), d("stash_node_singleflight_total"))
	blocks := d("stash_disk_blocks_read_total")
	var lateP99 float64
	if len(win.late) > 0 {
		late := make([]float64, len(win.late))
		for i, l := range win.late {
			late[i] = ms(l)
		}
		sort.Float64s(late)
		lateP99, _ = percentile(late, 99)
	}
	layers := []row{
		{"query.footprint_ms", "ms", stage("footprint"), "profile"},
		{"query.keys_per_req", "count", float64(a.keys) / reqs, "profile"},
		{"query.pool_hit_ratio", "ratio", ratio(d("stash_result_pool_total|hit"), d("stash_result_pool_total")), "registry"},
		{"cluster.shares_per_req", "count", ratio(d("stash_coord_fanout_nodes_sum"), d("stash_coord_fanout_nodes")), "registry"},
		{"cluster.fanout_ms", "ms", stage("fanout"), "profile"},
		{"cluster.merge_ms", "ms", stage("merge"), "profile"},
		{"cluster.fanin_depth", "count", float64(a.depth) / reqs, "profile"},
		{"cluster.coalesce_dedup_ratio", "ratio", dedup, "registry"},
		{"cluster.coalesce_batch_size", "count", ratio(d("stash_coalesce_batch_size|waiters_sum"), d("stash_coalesce_batch_size|waiters")), "registry, waiters per batch"},
		{"cluster.singleflight_shared_ratio", "ratio", sfShared, "registry"},
		{"cluster.queue_depth_peak", "count", float64(queuePeak), "running max since assembly"},
		{"cluster.population_inline_ratio", "ratio", ratio(d("stash_node_population_tasks_total|inline"), d("stash_node_population_tasks_total")), "registry"},
		{"cluster.retries_per_req", "count", float64(a.retries) / reqs, "profile"},
		{"cluster.goroutines_after_stop", "count", float64(leaked), "NumGoroutine after Stop minus before assembly"},
		{"stash.get_ms", "ms", stage("graph.get"), "profile"},
		{"stash.derive_ms", "ms", stage("graph.derive"), "profile"},
		{"stash.derived_per_req", "count", float64(a.derived) / reqs, "profile"},
		{"stash.hit_ratio", "ratio", hitRatio, "registry, all tiers"},
		{"stash.inserts_per_req", "count", perReq(d("stash_cache_inserts_total")), "registry"},
		{"stash.evictions", "count", d("stash_cache_evictions_total"), "registry"},
		{"stash.contention_per_req", "count", perReq(d("stash_graph_stripe_contention_total")), "registry"},
		{"galileo.scan_ms", "ms", stage("disk.scan"), "profile"},
		{"galileo.blocks_per_req", "count", perReq(blocks), "registry"},
		{"galileo.points_per_req", "count", perReq(d("stash_disk_points_scanned_total")), "registry"},
		{"simnet.sleep_ms_per_req", "ms", perReq(ms(sleepAfter - sleepBefore)), "Sleeper.Elapsed"},
		{"export.encode_ms", "ms", a.encodeMS / reqs, "benchmark"},
		{"export.bytes_per_req", "B", float64(a.bytes) / reqs, "benchmark"},
		{"obs.record_ms", "ms", a.recordMS / reqs, "benchmark"},
		{"obs.trace_overhead_pct", "%", sl.overheadPct(fs), "CPU per answered request, traced vs untraced slices"},
		{"bench.late_p99_ms", "ms", lateP99, fmt.Sprintf("open-loop generator lateness, %d arrivals", len(win.late))},
		{"bench.updates_applied", "count", float64(a.updates), ""},
		{"bench.drained_failed", "count", float64(win.drained), "in flight after the drain grace"},
		{"bench.oracle_answers", "count", float64(check.answers), ""},
		{"bench.oracle_cells", "count", float64(check.cells), ""},
		{"bench.oracle_mismatches", "count", float64(check.mismatches), ""},
	}
	for _, sp := range spanNames {
		layers = append(layers, row{"trace." + sp + ".self_ms", "ms", a.selfMS[sp] / traceReqs,
			fmt.Sprintf("span self time per traced request, %d traced", a.traced)})
	}

	// Workload invariants and the answer check decide correctness.
	var inv []invariant
	switch name {
	case "explore":
		inv = append(inv, invariant{"galileo blocks read in the timed window = 0", blocks == 0},
			invariant{"stash.hit_ratio >= 0.99", hitRatio >= 0.99})
	case "scan":
		// A share that outlives the 150 ms attempt deadline is retried, and
		// the retry may find cells the first attempt populated; only hits
		// without any retry would mean the cold path was bypassed.
		hits, retries := d("stash_cache_hits_total"), d("stash_coord_retries_total")
		inv = append(inv, invariant{fmt.Sprintf("stash.hit_ratio = 0 unless a retry re-read populated cells (%.0f hits, %.0f retries)", hits, retries),
			hits == 0 || retries > 0})
	case "hotspot":
		inv = append(inv, invariant{"updates applied > 0", a.updates > 0},
			invariant{"cluster.coalesce_dedup_ratio > 0", dedup > 0},
			invariant{"cluster.singleflight_shared_ratio > 0", sfShared > 0},
			invariant{fmt.Sprintf("bench.late_p99_ms <= %g (generator kept its schedule)", c.Hotspot.LateBoundMS), lateP99 <= c.Hotspot.LateBoundMS})
	}
	inv = append(inv, invariant{"oracle checked at least one answer", check.answers > 0},
		invariant{"oracle mismatches = 0", check.mismatches == 0},
		invariant{"self-test: a corrupted cell is caught", check.selfTest})
	correct := true
	for _, v := range inv {
		correct = correct && v.ok
	}

	printReport(out, name, seed, seconds, traced, e2e, info, layers, inv)
	res := result{Correct: correct, Attempted: n, Failed: errs, Metrics: map[string]metric{}}
	rows := e2e
	if traced {
		rows = layers
	}
	for _, r := range rows {
		res.Metrics[r.name] = metric{Value: r.value, Unit: r.unit}
	}
	return res, nil
}

// spanNames are the spans whose self time a traced run reports: the
// benchmark's own around each public call, and the program's. The node-side
// spans stay at 0 while coalescing detaches node work from the trace.
var spanNames = []string{
	"bench.request", "ingest.update", "query", "footprint", "fanout", "share", "merge",
	"node.request", "node.serve", "graph.get", "graph.derive", "disk.scan",
	"obs.record", "export.encode",
}

// goroutinesAfterStop waits up to a second for goroutines to wind down after
// Stop and returns how many more are running than before assembly.
func goroutinesAfterStop(before int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - before
}

type row struct {
	name, unit string
	value      float64
	note       string
}

type invariant struct {
	what string
	ok   bool
}

func printReport(w io.Writer, name string, seed int64, seconds int, traced bool, e2e, info, layers []row, inv []invariant) {
	fmt.Fprintf(w, "stashperf workload=%s seed=%d seconds=%d trace=%v gomaxprocs=%d\n", name, seed, seconds, traced, runtime.GOMAXPROCS(0))
	cfg := shippedConfig(0, nil)
	fmt.Fprintf(w, "config: nodes=%d points_per_block=%d sleeper=real replication=%v resilience=%v/attempt partials=%v coalesce_window=%v serve_singleflight=%v popworkers=%d diskparallel=%d stripes=%d history=%d flightrec=%d slowlog=%v encoder=geojson\n",
		cfg.Nodes, cfg.PointsPerBlock, cfg.Replication.Enabled(), cfg.Resilience.RequestTimeout, cfg.Resilience.AllowPartial,
		cfg.CoalesceWindow, cfg.ServeSingleflight, cfg.PopulationWorkers, cfg.GalileoParallelReads, cfg.Stash.Stripes,
		shippedHealth().History, flightRecCap, slowThreshold)
	section := func(title string, rows []row) {
		fmt.Fprintln(w, title)
		for _, r := range rows {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s %s\n", r.name, r.value, r.unit, r.note)
		}
	}
	section("end-to-end:", append(append([]row{}, e2e...), info...))
	if traced {
		section("per-layer:", layers)
	}
	fmt.Fprintln(w, "checks:")
	for _, v := range inv {
		mark := "ok  "
		if !v.ok {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  %s %s\n", mark, v.what)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtList(v []float64, f string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}
