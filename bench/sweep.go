package main

import (
	"bytes"
	"context"
	"fmt"

	"hyperx"
)

// The reduced Figure 6 grid: the 256-node 4x4x4 t=4 HyperX, one benign
// and two adversarial patterns, the two source-adaptive baselines and the
// paper's two incremental algorithms, loads 0.1..1.0. The served
// workload submits it. Every curve ends in a saturated point, so
// saturated drains occur. 1000 warmup and 1000 measured cycles give every
// seed the same curve lengths: at 500/500 the window's sampling noise
// read some seeds' low-load points as saturated and cut their curves
// short, so the grid's work varied by up to a fifth from seed to seed.
var (
	sweepPatterns = []string{"UR", "URBy", "DCR"}
	sweepAlgs     = []string{"DOR", "UGAL+", "DimWAR", "OmniWAR"}
	sweepLoads    = hyperx.LoadRange(0.1)
)

const sweepWorkers = 2

func sweepConfig(seed uint64) hyperx.Config {
	cfg := hyperx.DefaultScale()
	cfg.Seed = seed
	return cfg
}

func sweepOpts() hyperx.RunOpts { return runOpts(1000, 1000, 0) }

func sweepCSV(curves []hyperx.Curve) string {
	var b bytes.Buffer
	hyperx.WriteSweepCSV(&b, curves) // writes to a bytes.Buffer cannot fail
	return b.String()
}

// checkCurves checks the properties every pristine sweep has: each curve
// has at least one point, only its last point may be saturated, and no
// packet is dropped.
func checkCurves(curves []hyperx.Curve) error {
	if len(curves) != len(sweepPatterns)*len(sweepAlgs) {
		return fmt.Errorf("%d curves, want %d", len(curves), len(sweepPatterns)*len(sweepAlgs))
	}
	for _, c := range curves {
		if len(c.Points) == 0 {
			return fmt.Errorf("%s/%s: no points", c.Pattern, c.Algorithm)
		}
		for i, p := range c.Points {
			if p.Saturated && i != len(c.Points)-1 {
				return fmt.Errorf("%s/%s: saturated point %d before the end", c.Pattern, c.Algorithm, i)
			}
			if p.Dropped != 0 {
				return fmt.Errorf("%s/%s: %d drops on a pristine network", c.Pattern, c.Algorithm, p.Dropped)
			}
		}
	}
	return nil
}

// coldSweep runs the grid through the facade as a cold sweep: the
// reference the served fill must match byte for byte.
func coldSweep(cfg hyperx.Config) ([]hyperx.Curve, *hyperx.Manifest, error) {
	return hyperx.RunLoadSweepParallel(context.Background(), cfg, sweepPatterns, sweepAlgs, sweepLoads,
		sweepOpts(), hyperx.SweepOpts{Workers: sweepWorkers})
}
