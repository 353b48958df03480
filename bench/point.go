package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"hyperx"
	"hyperx/internal/route"
	"hyperx/internal/shard"
	"hyperx/internal/sim"
	"hyperx/internal/stats"
	"hyperx/internal/traffic"
)

// The paper's evaluation unit: one load point of the 4,096-node 8x8x8 t=8
// HyperX under DimWAR and uniform random traffic at 60% load. 500 warmup
// and 500 measured cycles is the shortest steady state that keeps the
// point unsaturated (at 300/300 the window closes before the first
// packets of the warmed network arrive and the point reads saturated);
// the facade's drain then adds 2000 cycles, so a point simulates 3000.
const (
	paperPattern = "UR"
	paperLoad    = 0.6
	paperShards  = 2

	paperSetupReps = 10 // set-ups timed per batch
)

func paperConfig(seed uint64) hyperx.Config {
	cfg := hyperx.PaperScale()
	cfg.Algorithm = "DimWAR"
	cfg.Seed = seed
	return cfg
}

// runOpts spells out every RunOpts field, so the facade and the traced
// reconstruction see identical values without relying on defaults.
func runOpts(warmup, window, shards int) hyperx.RunOpts {
	return hyperx.RunOpts{
		Warmup: warmup, Window: window, DrainCap: 10 * window, LatencyCap: 20000,
		MinFlits: 1, MaxFlits: 16, Shards: shards,
	}
}

// pointResult is one measured load point with its kernel event count.
type pointResult struct {
	pt     hyperx.LoadPoint
	events uint64
}

// facadePoint runs one cold point the way hxsweep does: through
// RunLoadSweepParallel, here with a one-point grid and one worker. This is
// the code path of hyperx.RunLoadPoint, and the manifest also reports the
// kernel event count that RunLoadPoint does not return.
func facadePoint(cfg hyperx.Config, pattern string, load float64, opts hyperx.RunOpts) (pointResult, error) {
	curves, m, err := hyperx.RunLoadSweepParallel(context.Background(), cfg, []string{pattern},
		[]string{cfg.Algorithm}, []float64{load}, opts, hyperx.SweepOpts{Workers: 1})
	if err != nil {
		return pointResult{}, err
	}
	if len(curves) != 1 || len(curves[0].Points) != 1 || len(m.Jobs) != 1 {
		return pointResult{}, fmt.Errorf("one-point sweep returned %d curves", len(curves))
	}
	return pointResult{pt: curves[0].Points[0], events: m.Jobs[0].Events}, nil
}

// setupTime builds the instance and starts its generator, and returns the
// duration: the work a run does before its first simulated cycle.
func setupTime(cfg hyperx.Config, pattern string, load float64) (time.Duration, error) {
	runtime.GC()
	t := time.Now()
	inst, err := hyperx.Build(cfg)
	if err != nil {
		return 0, err
	}
	defer inst.Close()
	pat, err := hyperx.NewPattern(pattern, inst.Topo)
	if err != nil {
		return 0, err
	}
	gen := &traffic.Generator{Net: inst.Net, Pattern: pat, Sizes: traffic.UniformSize{Min: 1, Max: 16}, Load: load}
	gen.Start(inst.Cfg.Seed)
	return time.Since(t), nil
}

// setupTimes returns n setupTime durations.
func setupTimes(cfg hyperx.Config, pattern string, load float64, n int) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < n; i++ {
		d, err := setupTime(cfg, pattern, load)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// checkPaperPoint checks one paper-scale result against the reference
// (the run's first point, or the serial point in a traced run)
// and the properties every unsaturated pristine point has.
func checkPaperPoint(r *result, what string, got, ref pointResult) {
	p := got.pt
	r.check(p == ref.pt && got.events == ref.events &&
		!p.Saturated && p.Dropped == 0 && p.Samples > 0 &&
		math.Abs(p.Accepted-paperLoad) <= 0.05*paperLoad,
		"%s: got %+v (%d events), reference %+v (%d events); want identical, unsaturated, no drops, accepted within 5%% of %.2f",
		what, p, got.events, ref.pt, ref.events, paperLoad)
}

func pointDigest(p pointResult) string {
	return digest(fmt.Sprintf("%+v|%d", p.pt, p.events))
}

// runPaperPointSharded measures cold paper-scale points with
// RunOpts.Shards = 2. Every point must equal the run's first. The traced
// run also runs the serial point as the reference its results and event
// counts must equal, and reports its wall time as a per-layer metric. The
// untraced runs check serial against sharded on a 4x4x4 point instead,
// because a paper-scale serial point would take them far past the
// measured seconds.
func runPaperPointSharded(e *env) (*result, error) {
	r := newResult()
	cfg := paperConfig(e.seed)
	opts := runOpts(500, 500, paperShards)
	if e.trace {
		var serial pointResult
		st, err := timed(func() (err error) {
			serial, err = facadePoint(cfg, paperPattern, paperLoad, runOpts(500, 500, 0))
			return err
		})
		if err != nil {
			return nil, err
		}
		fmt.Println("serial reference:", pointDigest(serial))
		if err := tracePaper(e, r, cfg, opts, serial); err != nil {
			return nil, err
		}
		e.tr.c.setFixed("shard.serial_wall_s", "s", st.wall.Seconds())
		return r, nil
	}
	if err := checkShardedSmall(r, e.seed, paperShards); err != nil {
		return nil, err
	}
	// Set-up is timed in batches before every point and after the last,
	// so that, like the points, its median spans the whole run rather
	// than the moment a single batch happened to run in.
	var setup []time.Duration
	setupBatch := func() error {
		s, err := setupTimes(cfg, paperPattern, paperLoad, paperSetupReps)
		setup = append(setup, s...)
		return err
	}
	var ref *pointResult
	var ops []opTime
	var walls []time.Duration
	start := time.Now()
	for len(ops) == 0 || e.more(start, ops[len(ops)-1].wall) {
		if err := setupBatch(); err != nil {
			return nil, err
		}
		var got pointResult
		ot, err := timed(func() (err error) {
			got, err = facadePoint(cfg, paperPattern, paperLoad, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = &got
		}
		checkPaperPoint(r, fmt.Sprintf("point %d", len(ops)), got, *ref)
		ops = append(ops, ot)
		walls = append(walls, ot.wall)
		fmt.Printf("op %d: %.3fs wall %.3fs cpu digest %s\n", len(ops), ot.wall.Seconds(), ot.cpu.Seconds(), pointDigest(got))
	}
	if err := setupBatch(); err != nil {
		return nil, err
	}
	setEndToEnd(e, r, ops, float64(ref.events), setup, walls)
	return r, nil
}

// checkShardedSmall runs one DimWAR UR point of the 4x4x4 network
// serially and with the given shards, untimed, and checks that the two
// agree bit for bit, event count included.
func checkShardedSmall(r *result, seed uint64, shards int) error {
	cfg := sweepConfig(seed)
	cfg.Algorithm = "DimWAR"
	serial, err := facadePoint(cfg, paperPattern, paperLoad, runOpts(500, 500, 0))
	if err != nil {
		return err
	}
	sharded, err := facadePoint(cfg, paperPattern, paperLoad, runOpts(500, 500, shards))
	if err != nil {
		return err
	}
	r.check(sharded == serial, "4x4x4 point: sharded %+v (%d events) differs from serial %+v (%d events)",
		sharded.pt, sharded.events, serial.pt, serial.events)
	fmt.Println("4x4x4 serial and sharded point:", pointDigest(serial), pointDigest(sharded))
	return nil
}

// tracePaper measures untraced facade points against traced
// reconstructions (see tracePairs).
func tracePaper(e *env, r *result, cfg hyperx.Config, opts hyperx.RunOpts, ref pointResult) error {
	return tracePairs(e, func() (time.Duration, error) {
		var got pointResult
		ot, err := timed(func() (err error) {
			got, err = facadePoint(cfg, paperPattern, paperLoad, opts)
			return err
		})
		if err != nil {
			return 0, err
		}
		checkPaperPoint(r, "untraced point", got, ref)
		return ot.wall, nil
	}, func() (time.Duration, error) {
		var tp tracedResult
		tt, err := timed(func() (err error) {
			opID, end := e.tr.begin("op.paper_point_sharded", 0, 0)
			defer end()
			tp, err = tracedPoint(context.Background(), e.tr, opID, cfg, paperPattern, paperLoad, opts)
			return err
		})
		if err != nil {
			return 0, err
		}
		checkPaperPoint(r, "traced point", tp.pointResult, ref)
		checkConservation(r, tp)
		fmt.Println("traced point digest:", pointDigest(tp.pointResult))
		return tt.wall, nil
	})
}

// checkConservation checks that every measured packet born was delivered
// or dropped (the point drained).
func checkConservation(r *result, tp tracedResult) {
	r.check(tp.born == tp.delivered+tp.dropped,
		"measured packets: born %d != delivered %d + dropped %d", tp.born, tp.delivered, tp.dropped)
}

// tracedResult is a traced point with its collector's packet counts.
type tracedResult struct {
	pointResult
	born, delivered, dropped int
}

// tracedPoint rebuilds the facade's sharded cold-point sequence (Build,
// NewPattern, a traffic.Generator, a stats.Collector, the sharded
// executor, Collector.Summarize) from public calls, with every layer
// wrapped for timing. Its LoadPoint must equal the facade's bit for
// bit.
func tracedPoint(ctx context.Context, tr *tracer, opID int64, cfg hyperx.Config, pattern string, load float64, opts hyperx.RunOpts) (tracedResult, error) {
	c := tr.c
	_, endBuild := tr.begin("hyperx.build", opID, opID)
	a0, t0 := allocMB(), time.Now()
	inst, err := hyperx.Build(cfg)
	c.buildNs.Add(int64(time.Since(t0)))
	c.buildAlloc.Add(int64((allocMB() - a0) * (1 << 20)))
	endBuild()
	if err != nil {
		return tracedResult{}, err
	}
	defer inst.Close()
	net, k := inst.Net, inst.K
	net.Cfg.Alg = algTracer{Algorithm: net.Cfg.Alg, c: c}
	pat, err := hyperx.NewPattern(pattern, inst.Topo)
	if err != nil {
		return tracedResult{}, err
	}
	gen := &traffic.Generator{
		Net:     net,
		Pattern: patternTracer{Pattern: pat, c: c},
		Sizes:   sizeTracer{SizeDist: traffic.UniformSize{Min: opts.MinFlits, Max: opts.MaxFlits}, c: c},
		Load:    load,
	}
	_, endStart := tr.begin("traffic.start", opID, opID)
	gen.Start(inst.Cfg.Seed)
	endStart()

	warm := k.Now() + sim.Time(opts.Warmup)
	end := warm + sim.Time(opts.Window)
	col := stats.NewCollector(warm, end)
	net.OnDeliver = func(p *route.Packet, at sim.Time) {
		t := time.Now()
		col.OnDeliver(p, at)
		c.statsCbNs.Add(int64(time.Since(t)))
		c.deliveries.Add(1)
	}
	net.OnDrop = col.OnDrop
	gen.OnBirth = func(_, _, _ int, at sim.Time) {
		t := time.Now()
		col.CountBirth(at)
		c.statsCbNs.Add(int64(time.Since(t)))
		c.births.Add(1)
	}
	net.OnHop = func(p *route.Packet, _, _ int, _ int8) {
		c.hops.Add(1)
		if p.LastDerDim >= 0 {
			c.deroutes.Add(1)
		}
	}
	n := 0
	k.TraceExec = func(sim.Time, uint64) {
		if n++; n&1023 == 0 {
			atomicMax(&c.pendingMax, int64(k.Pending()))
			atomicMax(&c.inFlightMax, int64(net.InFlight()))
		}
	}

	// The facade's sharded run loop, with the facade's window: the
	// minimum configured latency, capped at the router-to-router latency.
	if err := net.ConfigureShards(opts.Shards); err != nil {
		return tracedResult{}, err
	}
	cf := &net.Cfg
	win := min(cf.XbarLat, cf.RouterChanLat, cf.TermChanLat)
	x := shard.New(k, newModelTracer(net, c), max(win, 1))
	defer x.Close()
	runTo := func(until sim.Time) error {
		_, endRun := tr.begin("sim.run", opID, opID)
		t := time.Now()
		_, err := x.RunCtx(ctx, until)
		c.simRunNs.Add(int64(time.Since(t)))
		endRun()
		return err
	}
	if err := runTo(end); err != nil {
		return tracedResult{}, err
	}
	deadline := end + sim.Time(opts.DrainCap)
	for !col.Done() && k.Now() < deadline {
		if err := runTo(k.Now() + 2000); err != nil {
			return tracedResult{}, err
		}
	}
	gen.Stop()

	_, endSum := tr.begin("stats.summarize", opID, opID)
	t := time.Now()
	res := col.Summarize(inst.Topo.NumTerminals(), opts.LatencyCap)
	c.sumNs.Add(int64(time.Since(t)))
	endSum()
	c.events.Add(int64(k.Executed()))
	c.linkUtilPPM.Add(int64(net.MeanLinkUtilization() * 1e6))
	c.linkUtilN.Add(1)
	return tracedResult{
		pointResult: pointResult{
			pt: hyperx.LoadPoint{
				Load:      load,
				Mean:      res.Mean,
				P50:       res.P50,
				P99:       res.P99,
				Accepted:  res.Accepted,
				Samples:   res.Samples,
				Saturated: res.Saturated || res.Accepted < 0.95*load-0.005,
				Delivered: net.DeliveredPackets,
				Dropped:   net.DroppedPackets,
			},
			events: k.Executed(),
		},
		born: col.Born(), delivered: col.Delivered(), dropped: col.Dropped(),
	}, nil
}
