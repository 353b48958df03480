package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hyperx/internal/network"
	"hyperx/internal/rng"
	"hyperx/internal/route"
	"hyperx/internal/sim"
	"hyperx/internal/traffic"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one operation share Op; Parent is the span that caused
// this one (0 for an operation's root).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory (written out when the run ends) and the
// per-layer counters of the current traced operation. Counters are
// atomic because routing and traffic calls run on shard workers.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	c      *counters
}

func newTracer() *tracer { return &tracer{t0: time.Now(), c: &counters{}} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string, op, parent int64) (id int64, end func()) {
	id = t.nextID.Add(1)
	if op == 0 {
		op = id
	}
	start := time.Since(t.t0).Seconds()
	return id, func() {
		s := span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: time.Since(t.t0).Seconds()}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// counters are the per-layer measurements of one traced operation; times
// are in nanoseconds.
type counters struct {
	buildNs, buildAlloc, snapshotNs, restoreNs atomic.Int64

	simRunNs, pendingMax atomic.Int64
	events               atomic.Int64

	hops, deroutes, inFlightMax atomic.Int64
	linkUtilPPM, linkUtilN      atomic.Int64 // Σ mean link utilization ×1e6 over simulations

	routeCalls, routeNs, routeCands atomic.Int64
	births, trafficNs               atomic.Int64
	deliveries, statsCbNs, sumNs    atomic.Int64

	windows, windowEvents, fallbacks     atomic.Int64
	partitionNs, parallelNs, mergeNs     atomic.Int64
	executeNs, executeMaxNs, meanShardNs atomic.Int64
	jobs                                 atomic.Int64

	// Set once by the workload after the traced operation.
	mu       sync.Mutex
	jobWalls []float64
	algWall  map[string]float64
	fixed    []namedMetric // checkpoint.*, serve.*, trace.*, harness.busy_frac, shard.serial_wall_s
}

type namedMetric struct {
	name string
	metric
}

// setFixed records a metric the workload measured directly; it replaces
// fillPerLayer's value of the same name.
func (c *counters) setFixed(name, unit string, v float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fixed = append(c.fixed, namedMetric{name, metric{Value: v, Unit: unit}})
}

// atomicMax raises a to v if v is larger.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// algTracer is a transparent routing.Algorithm wrapper timing every
// routing decision. Safe under shard workers.
type algTracer struct {
	route.Algorithm
	c *counters
}

func (a algTracer) Route(ctx *route.Ctx, p *route.Packet) []route.Candidate {
	t := time.Now()
	cands := a.Algorithm.Route(ctx, p)
	a.c.routeNs.Add(int64(time.Since(t)))
	a.c.routeCalls.Add(1)
	a.c.routeCands.Add(int64(len(cands)))
	return cands
}

// patternTracer times destination draws.
type patternTracer struct {
	traffic.Pattern
	c *counters
}

func (p patternTracer) Dest(src int, rs *rng.Source) int {
	t := time.Now()
	d := p.Pattern.Dest(src, rs)
	p.c.trafficNs.Add(int64(time.Since(t)))
	return d
}

// sizeTracer times packet-size draws.
type sizeTracer struct {
	traffic.SizeDist
	c *counters
}

func (s sizeTracer) Draw(rs *rng.Source) int {
	t := time.Now()
	n := s.SizeDist.Draw(rs)
	s.c.trafficNs.Add(int64(time.Since(t)))
	return n
}

// modelTracer decorates the network as the sharded executor's model and
// times each executor phase. RunShard runs on worker goroutines; each
// shard's slot is written by the one worker running it and read by the
// coordinator in MergeWindow, after the executor's barrier.
type modelTracer struct {
	*network.Network
	c       *counters
	shardNs []int64
	partEnd time.Time
}

func newModelTracer(n *network.Network, c *counters) *modelTracer {
	return &modelTracer{Network: n, c: c, shardNs: make([]int64, n.NumShards())}
}

func (m *modelTracer) PartitionWindow(batch []*sim.Event, winEnd sim.Time) bool {
	t := time.Now()
	ok := m.Network.PartitionWindow(batch, winEnd)
	m.partEnd = time.Now()
	m.c.partitionNs.Add(int64(m.partEnd.Sub(t)))
	if ok {
		m.c.windows.Add(1)
		m.c.windowEvents.Add(int64(len(batch)))
	} else {
		m.c.fallbacks.Add(1)
	}
	for i := range m.shardNs {
		m.shardNs[i] = 0
	}
	return ok
}

func (m *modelTracer) RunShard(s int) {
	t := time.Now()
	m.Network.RunShard(s)
	m.shardNs[s] = int64(time.Since(t))
}

func (m *modelTracer) MergeWindow() bool {
	t := time.Now()
	m.c.parallelNs.Add(int64(t.Sub(m.partEnd)))
	var sum, mx, n int64
	for _, d := range m.shardNs {
		if d > 0 {
			sum += d
			n++
			mx = max(mx, d)
		}
	}
	if n > 0 {
		m.c.executeNs.Add(sum)
		m.c.executeMaxNs.Add(mx)
		m.c.meanShardNs.Add(sum / n)
	}
	lastDead := m.Network.MergeWindow()
	m.c.mergeNs.Add(int64(time.Since(t)))
	return lastDead
}

// tracePairs alternates an untraced operation with a traced one while
// time allows, and always runs one pair. Each traced operation starts with
// fresh counters, so the per-layer metrics describe the last one; the
// tracing overhead is the difference of the two medians.
func tracePairs(e *env, untraced, traced func() (time.Duration, error)) error {
	var plain, tr []float64
	start := time.Now()
	var last time.Duration
	for len(tr) == 0 || e.more(start, 2*last) {
		u, err := untraced()
		if err != nil {
			return err
		}
		e.tr.c = &counters{}
		t, err := traced()
		if err != nil {
			return err
		}
		plain, tr, last = append(plain, u.Seconds()), append(tr, t.Seconds()), u
		fmt.Printf("pair %d: untraced %.3fs traced %.3fs\n", len(tr), u.Seconds(), t.Seconds())
	}
	e.tr.c.setFixed("trace.untraced_wall_s", "s", median(plain))
	e.tr.c.setFixed("trace.traced_wall_s", "s", median(tr))
	e.tr.c.setFixed("trace.overhead_s", "s", median(tr)-median(plain))
	return nil
}

// fillPerLayer reports every per-layer metric of the traced operation.
// Layers the workload does not reach report 0.
func fillPerLayer(r *result, c *counters) {
	ns := func(a *atomic.Int64) float64 { return float64(a.Load()) / 1e9 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.Metrics = map[string]metric{}

	r.set("hyperx.build_s", "s", ns(&c.buildNs))
	r.set("hyperx.build_alloc_mb", "MB", float64(c.buildAlloc.Load())/(1<<20))
	r.set("hyperx.snapshot_s", "s", ns(&c.snapshotNs))
	r.set("hyperx.restore_s", "s", ns(&c.restoreNs))

	callbacks := c.routeNs.Load() + c.trafficNs.Load() + c.statsCbNs.Load()
	ev := float64(c.events.Load())
	r.set("sim.events", "count", ev)
	r.set("sim.run_s", "s", ns(&c.simRunNs))
	r.set("sim.self_s", "s", float64(c.simRunNs.Load()-callbacks)/1e9)
	r.set("sim.ns_per_event", "ns", ratio(float64(c.simRunNs.Load()), ev))
	r.set("sim.pending_max", "count", float64(c.pendingMax.Load()))

	hops := float64(c.hops.Load())
	r.set("network.hops", "count", hops)
	r.set("network.deroute_frac", "ratio", ratio(float64(c.deroutes.Load()), hops))
	r.set("network.in_flight_max", "count", float64(c.inFlightMax.Load()))
	r.set("network.link_util_mean", "ratio", ratio(float64(c.linkUtilPPM.Load())/1e6, float64(c.linkUtilN.Load())))

	calls := float64(c.routeCalls.Load())
	r.set("routing.calls", "count", calls)
	r.set("routing.self_s", "s", ns(&c.routeNs))
	r.set("routing.ns_per_call", "ns", ratio(float64(c.routeNs.Load()), calls))
	r.set("routing.cands_per_call", "count", ratio(float64(c.routeCands.Load()), calls))

	r.set("traffic.births", "count", float64(c.births.Load()))
	r.set("traffic.self_s", "s", ns(&c.trafficNs))
	r.set("stats.deliveries", "count", float64(c.deliveries.Load()))
	r.set("stats.callback_s", "s", ns(&c.statsCbNs))
	r.set("stats.summarize_s", "s", ns(&c.sumNs))

	win := float64(c.windows.Load())
	r.set("shard.windows", "count", win)
	r.set("shard.events_per_window", "count", ratio(float64(c.windowEvents.Load()), win))
	r.set("shard.partition_s", "s", ns(&c.partitionNs))
	r.set("shard.parallel_s", "s", ns(&c.parallelNs))
	r.set("shard.execute_s", "s", ns(&c.executeNs))
	r.set("shard.execute_max_s", "s", ns(&c.executeMaxNs))
	r.set("shard.merge_s", "s", ns(&c.mergeNs))
	drain := c.simRunNs.Load() - c.partitionNs.Load() - c.parallelNs.Load() - c.mergeNs.Load()
	r.set("shard.drain_s", "s", float64(drain)/1e9)
	r.set("shard.imbalance", "ratio", ratio(float64(c.executeMaxNs.Load()), float64(c.meanShardNs.Load())))
	r.set("shard.serial_fallbacks", "count", float64(c.fallbacks.Load()))
	r.set("shard.serial_wall_s", "s", 0) // set by the sharded workload

	r.set("harness.jobs", "count", float64(c.jobs.Load()))
	r.set("harness.busy_frac", "ratio", 0) // set by the workload when a pool ran
	c.mu.Lock()
	defer c.mu.Unlock()
	r.set("harness.job_wall_p50_s", "s", quantile(c.jobWalls, 0.5))
	r.set("harness.job_wall_max_s", "s", quantile(c.jobWalls, 1))
	for _, a := range sweepAlgs {
		r.set("harness.alg_wall_s."+metricAlgName(a), "s", c.algWall[a])
	}
	for _, n := range []string{"checkpoint.hits", "checkpoint.misses", "checkpoint.saves"} {
		r.set(n, "count", 0)
	}
	r.set("checkpoint.bytes", "B", 0)
	r.set("checkpoint.load_us", "us", 0)
	r.set("serve.submit_ms", "ms", 0)
	r.set("serve.result_ms", "ms", 0)
	r.set("serve.refused", "count", 0)
	r.set("serve.flight_computes", "count", 0)
	r.set("serve.flight_shared", "count", 0)
	for _, m := range c.fixed {
		r.Metrics[m.name] = m.metric
	}
}

// metricAlgName makes an algorithm name usable in a metric name.
func metricAlgName(a string) string {
	if a == "UGAL+" {
		return "UGALplus"
	}
	return a
}
