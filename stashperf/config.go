package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"stash"
	"stash/internal/cluster"
	"stash/internal/obs"
)

// workloadsJSON is the benchmark's workload record; its "constants" block
// fixes every rate, count and percentile the workloads use.
//
//go:embed workloads.json
var workloadsJSON []byte

type constants struct {
	DatasetSeed uint64  `json:"dataset_seed"`
	SetupReps   int     `json:"setup_reps"`
	SLOMS       float64 `json:"slo_ms"`
	Slices      int     `json:"slices"`
	Explore     struct {
		Regions      [][2]float64 `json:"regions"` // south-west corner of each session's country-size region
		TailPct      float64      `json:"tail_percentile"`
		DiceSteps    int          `json:"dice_steps"`
		DiceFraction float64      `json:"dice_fraction"`
		Pans         int          `json:"pans"`
		PanFraction  float64      `json:"pan_fraction"`
		DrillFrom    int          `json:"drill_from"`
		DrillTo      int          `json:"drill_to"`
		SampleStride int          `json:"sample_stride"`
		SampleCells  int          `json:"sample_cells"`
	} `json:"explore"`
	Scan struct {
		Clients      int     `json:"clients"`
		TailPct      float64 `json:"tail_percentile"`
		Warmup       int     `json:"warmup"`
		FirstDay     string  `json:"first_day"`
		SampleStride int     `json:"sample_stride"`
		SampleCells  int     `json:"sample_cells"`
	} `json:"scan"`
	Hotspot struct {
		RatePerS      float64 `json:"rate_per_s"`
		UpdateEvery   int     `json:"update_every"`
		PanFraction   float64 `json:"pan_fraction"`
		TailPct       float64 `json:"tail_percentile"`
		LateBoundMS   float64 `json:"late_bound_ms"`
		DrainGraceMS  int     `json:"drain_grace_ms"`
		Warmup        int     `json:"warmup"`
		WarmupWorkers int     `json:"warmup_workers"`
		VerifyQueries int     `json:"verify_queries"`
	} `json:"hotspot"`
}

func loadConstants() (constants, error) {
	var doc struct {
		Constants constants `json:"constants"`
	}
	if err := json.Unmarshal(workloadsJSON, &doc); err != nil {
		return constants{}, fmt.Errorf("workloads.json: %w", err)
	}
	c := doc.Constants
	if c.SetupReps < 1 || len(c.Explore.Regions) < 1 || c.Scan.Clients < 1 ||
		c.Hotspot.RatePerS <= 0 || c.Hotspot.UpdateEvery < 1 || c.Slices < 2 {
		return constants{}, fmt.Errorf("workloads.json: constants out of range")
	}
	return c, nil
}

// shippedConfig mirrors cmd/stashd main with its default flags: 16 nodes,
// 512 points per block, a sleeping cost applier, replication and the
// resilient coordinator on, coalescing plus serve-side singleflight, two
// population workers, serial disk reads and the default stripe count.
func shippedConfig(seed uint64, sl stash.Sleeper) stash.Config {
	cfg := stash.DefaultConfig()
	cfg.Nodes = 16
	cfg.Seed = seed
	cfg.PointsPerBlock = 512
	cfg.Histograms = false
	cfg.Stash.Stripes = stash.DefaultCacheConfig().Stripes
	cfg.PopulationWorkers = 2
	cfg.GalileoParallelReads = 1
	cfg.Sleeper = sl
	cfg.Replication = stash.DefaultReplicationConfig()
	cfg.Resilience = stash.DefaultResilienceConfig()
	cfg.CoalesceWindow = stash.DefaultCoalesceWindow
	cfg.ServeSingleflight = true
	return cfg
}

// shippedHealth mirrors stashd's -history/-sample-interval/-slo-* defaults.
func shippedHealth() cluster.HealthConfig {
	return cluster.HealthConfig{
		History:  600,
		Interval: obs.DefaultTSDBInterval,
		SLO: cluster.SLOThresholds{
			QueryP99:     0.250,
			ErrRatio:     0.01,
			HitRatio:     0.5,
			PartialRatio: 0.05,
		},
		Structural: cluster.DefaultStructuralThresholds(),
	}
}

// stashd's -flightrec and -slowms defaults, and its slow-ring capacity.
const (
	flightRecCap  = 512
	slowThreshold = 100 * time.Millisecond
	slowRingCap   = 64
)
