package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"hyperx"
	"hyperx/internal/serve"
)

// The served workload submits the reduced Figure 6 grid to an in-process
// sweep service as pristine warm-fork requests (identical results to a
// cold sweep). The fill computes every curve and saves it to a fresh
// checkpoint directory; the server then restarts on the same directory,
// so the replay's re-grouped subsets of the cached curves miss the
// restarted job registry and read every curve back through the store.
const servedClients = 2

// replayRounds is how many restart-and-replay rounds follow each fill:
// each round's 105 requests are new to the restarted registry, so every
// round reads the store.
const replayRounds = 3

// servedSetupReps is how many set-ups are timed before each cycle.
const servedSetupReps = 5

// server is one running service instance on a loopback listener.
type server struct {
	s  *serve.Server
	ts *httptest.Server
}

func startServer(dir string) (*server, error) {
	s, err := serve.New(serve.Options{CheckpointDir: dir, Workers: sweepWorkers, Executors: servedClients})
	if err != nil {
		return nil, err
	}
	return &server{s: s, ts: httptest.NewServer(s.Handler())}, nil
}

// stop closes the listener (waiting for open requests) and drains the
// executors.
func (sv *server) stop() error {
	sv.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return sv.s.Shutdown(ctx)
}

// reply is one request's outcome, as a client sees it.
type reply struct {
	csv                   string
	id                    string
	total, submit, result time.Duration
	refused               bool
	err                   error // any non-200/202 answer, non-done job, or transport error
}

// client is a closed-loop client: it sends its next request only when the
// previous one has returned.
type client struct {
	base string
	hc   *http.Client
}

// sweep submits req and waits for its CSV: POST, then the job's event
// stream until the job ends, then result.csv.
func (c *client) sweep(req serve.Request) reply {
	var rp reply
	body, err := json.Marshal(req)
	if err != nil {
		rp.err = err
		return rp
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		rp.err = err
		return rp
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	rp.submit = time.Since(t0)
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		rp.refused = true
		rp.err = fmt.Errorf("submit refused: 503")
		return rp
	case resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
		rp.err = fmt.Errorf("submit: status %d", resp.StatusCode)
		return rp
	case err != nil:
		rp.err = fmt.Errorf("submit: %w", err)
		return rp
	}
	rp.id = st.ID
	if state, err := c.wait(st.ID); err != nil || state != "done" {
		rp.err = fmt.Errorf("job %s ended %q: %v", st.ID, state, err)
		return rp
	}
	t1 := time.Now()
	b, code, err := c.get("/v1/jobs/" + st.ID + "/result.csv")
	rp.result = time.Since(t1)
	rp.total = time.Since(t0)
	if err != nil || code != http.StatusOK {
		rp.err = fmt.Errorf("result.csv: status %d: %v", code, err)
		return rp
	}
	rp.csv = string(b)
	return rp
}

// wait reads the job's event stream to its end and returns the final
// state.
func (c *client) wait(id string) (string, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return state, err
		}
		if line.State != "" {
			state = line.State
		}
	}
	return state, sc.Err()
}

func (c *client) get(path string) ([]byte, int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

func (c *client) getJSON(path string, v any) error {
	b, code, err := c.get(path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, code)
	}
	return json.Unmarshal(b, v)
}

func newClient(sv *server) *client {
	return &client{base: sv.ts.URL, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: servedClients, MaxIdleConnsPerHost: servedClients}}}
}

func servedRequest(cfg hyperx.Config, pats, algs []string) serve.Request {
	return serve.Request{
		Kind: "sweep", Config: cfg, Patterns: pats, Algorithms: algs,
		Loads: sweepLoads, Opts: sweepOpts(), Fork: &hyperx.ForkOpts{},
	}
}

// closedLoop sends reqs from servedClients clients, each taking the next
// request once its previous one returned, and returns the replies in
// request order.
func closedLoop(cl *client, reqs []serve.Request) []reply {
	out := make([]reply, len(reqs))
	next := make(chan int, len(reqs)) // holds every request index up front
	for i := range reqs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < servedClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = cl.sweep(reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// subset is one replay request: a non-empty subset of the patterns and of
// the algorithms, in grid order.
type subset struct{ pats, algs []string }

// replaySubsets returns all 7 x 15 = 105 re-groupings of the grid in an
// order drawn from seed. Each is a distinct job, so none is served from
// a freshly restarted registry.
func replaySubsets(seed uint64) []subset {
	var out []subset
	for pm := 1; pm < 1<<len(sweepPatterns); pm++ {
		for am := 1; am < 1<<len(sweepAlgs); am++ {
			var s subset
			for i, p := range sweepPatterns {
				if pm&(1<<i) != 0 {
					s.pats = append(s.pats, p)
				}
			}
			for i, a := range sweepAlgs {
				if am&(1<<i) != 0 {
					s.algs = append(s.algs, a)
				}
			}
			out = append(out, s)
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// subsetCSV assembles the CSV a subset request must return from the
// fill's per-pattern CSVs: the header, then each requested pattern's rows
// of each requested algorithm, in request order.
func subsetCSV(fill map[string]string, s subset) string {
	var b strings.Builder
	header := ""
	for _, p := range s.pats {
		lines := strings.SplitAfter(fill[p], "\n")
		header = lines[0]
		for _, a := range s.algs {
			for _, l := range lines[1:] {
				if strings.HasPrefix(l, a+",") {
					b.WriteString(l)
				}
			}
		}
	}
	return header + b.String()
}

// servedOp is one fill-restart-replay cycle.
type servedOp struct {
	fill, replay time.Duration
	cpu          time.Duration
	rssMB        float64
	fillEvents   uint64
	replayLat    []time.Duration
	submit, res  []time.Duration
	refused      int
	manifests    []*hyperx.Manifest
	fillStats    serve.CacheStatsBody
	replayStats  serve.CacheStatsBody // of the last replay round
}

// runServed runs one cycle in a fresh checkpoint directory, checking every
// reply: the fill against the cold sweep, the replay against the fill.
// The caller removes dir.
func runServed(e *env, r *result, cfg hyperx.Config, want []hyperx.Curve, dir string) (*servedOp, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	op := &servedOp{}
	settle()
	c0 := cpuTime()
	sv, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if sv != nil {
			sv.stop() // error path only; the success path checks stop below
		}
	}()
	cl := newClient(sv)
	var reqs []serve.Request
	for _, p := range sweepPatterns {
		reqs = append(reqs, servedRequest(cfg, []string{p}, sweepAlgs))
	}
	t := time.Now()
	fills := closedLoop(cl, reqs)
	op.fill = time.Since(t)
	fill := map[string]string{}
	for i, rp := range fills {
		p := sweepPatterns[i]
		var curves []hyperx.Curve
		for _, c := range want {
			if c.Pattern == p {
				curves = append(curves, c)
			}
		}
		op.note(rp)
		r.check(rp.err == nil && rp.csv == sweepCSV(curves),
			"fill %s: error %v; CSV identical to the cold sweep: %v", p, rp.err, rp.csv == sweepCSV(curves))
		fill[p] = rp.csv
		if rp.err != nil {
			continue
		}
		var res serve.ResultJSON
		if err := cl.getJSON("/v1/jobs/"+rp.id+"/result.json", &res); err != nil {
			return nil, err
		}
		op.manifests = append(op.manifests, res.Manifest)
		op.fillEvents += res.Manifest.TotalEvents
	}
	if err := cl.getJSON("/v1/cache/stats", &op.fillStats); err != nil {
		return nil, err
	}
	cl.hc.CloseIdleConnections()
	err = sv.stop()
	sv = nil
	if err != nil {
		return nil, err
	}

	subs := replaySubsets(e.seed)
	reqs = reqs[:0]
	for _, s := range subs {
		reqs = append(reqs, servedRequest(cfg, s.pats, s.algs))
	}
	for round := 0; round < replayRounds; round++ {
		if err := replayRound(r, op, dir, fill, subs, reqs); err != nil {
			return nil, err
		}
	}
	op.cpu = cpuTime() - c0
	op.rssMB = peakRSSMB()
	return op, nil
}

// replayRound restarts the server on dir and replays every subset once,
// checking each reply against the fill and that every curve came from
// the store with nothing recomputed.
func replayRound(r *result, op *servedOp, dir string, fill map[string]string, subs []subset, reqs []serve.Request) error {
	sv, err := startServer(dir)
	if err != nil {
		return err
	}
	cl := newClient(sv)
	t := time.Now()
	replies := closedLoop(cl, reqs)
	op.replay += time.Since(t)
	curves := 0
	for i, rp := range replies {
		op.note(rp)
		op.replayLat = append(op.replayLat, rp.total)
		exp := subsetCSV(fill, subs[i])
		r.check(rp.err == nil && rp.csv == exp, "replay %v/%v: error %v; CSV identical to the fill: %v",
			subs[i].pats, subs[i].algs, rp.err, rp.csv == exp)
		curves += len(subs[i].pats) * len(subs[i].algs)
	}
	var st serve.CacheStatsBody
	err = cl.getJSON("/v1/cache/stats", &st)
	cl.hc.CloseIdleConnections()
	if stopErr := sv.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	if st.Store == nil || st.Store.Hits != uint64(curves) || st.Flight.Computes != 0 {
		r.fail("replay after restart: want %d store hits and no computation, got %+v", curves, st)
	}
	op.replayStats = st
	return nil
}

func (op *servedOp) note(rp reply) {
	op.submit = append(op.submit, rp.submit)
	op.res = append(op.res, rp.result)
	if rp.refused {
		op.refused++
	}
}

func runFig6Served(e *env) (*result, error) {
	r := newResult()
	cfg := sweepConfig(e.seed)
	want, _, err := coldSweep(cfg)
	if err != nil {
		return nil, err
	}
	if err := checkCurves(want); err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	fmt.Println("reference sweep digest:", digest(sweepCSV(want)))
	base := filepath.Join(e.out, "served")
	if e.trace {
		return r, traceServed(e, r, cfg, want, base)
	}
	var ops []opTime
	var setup, lat []time.Duration
	var fillWalls []float64
	var events uint64
	start := time.Now()
	for len(ops) == 0 || e.more(start, ops[len(ops)-1].wall) {
		// Set-up batches before every cycle spread its repetitions over
		// the run, as the cycles are: one batch of 3 ms set-ups can fall
		// entirely in a burst of a neighbour's load.
		s, err := servedSetupTimes(filepath.Join(base, "setup"), cfg, servedSetupReps)
		if err != nil {
			return nil, err
		}
		setup = append(setup, s...)
		dir := filepath.Join(base, fmt.Sprintf("seed%d-op%d", e.seed, len(ops)))
		op, err := runServed(e, r, cfg, want, dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		if events == 0 {
			events = op.fillEvents
		}
		if op.fillEvents != events {
			r.fail("fill events %d differ from the first fill's %d", op.fillEvents, events)
		}
		ops = append(ops, opTime{wall: op.fill + op.replay, cpu: op.cpu, rssMB: op.rssMB})
		fillWalls = append(fillWalls, op.fill.Seconds())
		lat = append(lat, op.replayLat...)
		fmt.Printf("op %d: fill %.3fs replay %.3fs (%d requests) cpu %.3fs\n",
			len(ops), op.fill.Seconds(), op.replay.Seconds(), len(op.replayLat), op.cpu.Seconds())
	}
	setEndToEnd(e, r, ops, float64(events), setup, lat)
	// events_per_s on this workload is the fill's rate: the replay
	// simulates nothing.
	r.set("events_per_s", "1/s", float64(events)/median(fillWalls))
	fmt.Printf("replay latency samples: %d\n", len(lat))
	return r, nil
}

// servedSetupTimes returns n durations of the work a served cycle does
// before its first simulated cycle: a server start on a fresh directory,
// then Build, NewPattern and Generator.Start of every curve of the grid
// (the fork fill builds each curve's instance once). Stopping the server
// is not timed.
func servedSetupTimes(dir string, cfg hyperx.Config, n int) ([]time.Duration, error) {
	defer os.RemoveAll(dir)
	var out []time.Duration
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		sv, err := startServer(filepath.Join(dir, fmt.Sprint(i)))
		if err != nil {
			return nil, err
		}
		d := time.Since(t)
		for _, pat := range sweepPatterns {
			for _, alg := range sweepAlgs {
				ccfg := cfg
				ccfg.Algorithm = alg
				b, err := setupTime(ccfg, pat, sweepLoads[0])
				if err != nil {
					sv.stop()
					return nil, err
				}
				d += b
			}
		}
		out = append(out, d)
		if err := sv.stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceServed runs an untraced and a traced cycle while time allows. The
// simulations run inside the server, so the traced cycle adds what can be
// seen from outside: per-phase request times, the store and singleflight
// counters, the manifests' per-job walls, direct timed Load of every
// stored curve, and direct Build, Snapshot and Restore of the curve
// configurations.
func traceServed(e *env, r *result, cfg hyperx.Config, want []hyperx.Curve, base string) error {
	n := 0
	cycle := func(name string, after func(*servedOp, string) error) (time.Duration, error) {
		n++
		dir := filepath.Join(base, fmt.Sprintf("seed%d-%s%d", e.seed, name, n))
		defer os.RemoveAll(dir)
		op, err := runServed(e, r, cfg, want, dir)
		if err == nil && after != nil {
			err = after(op, dir)
		}
		if err != nil {
			return 0, err
		}
		return op.fill + op.replay, nil
	}
	return tracePairs(e, func() (time.Duration, error) {
		return cycle("plain", nil)
	}, func() (time.Duration, error) {
		opID, end := e.tr.begin("op.fig6_served", 0, 0)
		defer end()
		return cycle("traced", func(op *servedOp, dir string) error {
			servedLayers(e.tr.c, op)
			return traceStore(e, opID, cfg, dir)
		})
	})
}

// servedLayers records the per-layer metrics a served cycle exposes:
// request phases, singleflight and store counters, and the fill jobs'
// walls from their manifests.
func servedLayers(c *counters, op *servedOp) {
	c.setFixed("serve.submit_ms", "ms", median(millis(op.submit)))
	c.setFixed("serve.result_ms", "ms", median(millis(op.res)))
	c.setFixed("serve.refused", "count", float64(op.refused))
	c.setFixed("serve.flight_computes", "count", float64(op.fillStats.Flight.Computes+op.replayStats.Flight.Computes))
	c.setFixed("serve.flight_shared", "count", float64(op.fillStats.Flight.Shared+op.replayStats.Flight.Shared))
	if fs, rs := op.fillStats.Store, op.replayStats.Store; fs != nil && rs != nil {
		c.setFixed("checkpoint.hits", "count", float64(fs.Hits+rs.Hits))
		c.setFixed("checkpoint.misses", "count", float64(fs.Misses+rs.Misses))
		c.setFixed("checkpoint.saves", "count", float64(fs.Saves+rs.Saves))
		c.setFixed("checkpoint.bytes", "B", float64(rs.Bytes))
	}
	c.events.Store(int64(op.fillEvents))
	c.algWall = map[string]float64{}
	busy := 0.0
	for _, m := range op.manifests {
		for _, j := range m.Jobs {
			c.jobs.Add(1)
			alg := j.Label[strings.Index(j.Label, "/")+1 : strings.Index(j.Label, " ")]
			c.jobWalls = append(c.jobWalls, j.WallSeconds)
			c.algWall[alg] += j.WallSeconds
			busy += j.WallSeconds
		}
	}
	c.setFixed("harness.busy_frac", "ratio", busy/(servedClients*sweepWorkers*op.fill.Seconds()))
	fmt.Printf("traced cycle: fill %.3fs, replay %.3fs\n", op.fill.Seconds(), op.replay.Seconds())
}

// traceStore times the layers the served fill uses per curve, called
// directly: Build, Instance.Snapshot and Instance.Restore on each curve's
// configuration, one restore per load as the fork does, and
// CheckpointStore.Load of every curve the traced cycle saved in dir.
func traceStore(e *env, opID int64, cfg hyperx.Config, dir string) error {
	c := e.tr.c
	_, end := e.tr.begin("hyperx.build_snapshot_restore", opID, opID)
	for range sweepPatterns {
		for _, alg := range sweepAlgs {
			acfg := cfg
			acfg.Algorithm = alg
			a0, t := allocMB(), time.Now()
			inst, err := hyperx.Build(acfg)
			c.buildNs.Add(int64(time.Since(t)))
			c.buildAlloc.Add(int64((allocMB() - a0) * (1 << 20)))
			if err != nil {
				return err
			}
			t = time.Now()
			snap, err := inst.Snapshot(nil)
			c.snapshotNs.Add(int64(time.Since(t)))
			if err != nil {
				return err
			}
			for range sweepLoads {
				t := time.Now()
				err := inst.Restore(snap, nil)
				c.restoreNs.Add(int64(time.Since(t)))
				if err != nil {
					return err
				}
			}
			inst.Close()
		}
	}
	end()

	_, end = e.tr.begin("checkpoint.load", opID, opID)
	defer end()
	store, err := hyperx.OpenCheckpointDir(dir)
	if err != nil {
		return err
	}
	var loads []float64
	for _, pat := range sweepPatterns {
		for _, alg := range sweepAlgs {
			ccfg := cfg
			ccfg.Algorithm = alg
			key := hyperx.CurveKey(ccfg, pat, sweepLoads, sweepOpts(), hyperx.ForkOpts{})
			var v json.RawMessage
			t := time.Now()
			ok, err := store.Load(key, &v)
			loads = append(loads, float64(time.Since(t))/float64(time.Microsecond))
			if err != nil || !ok {
				return fmt.Errorf("checkpoint load of %s/%s: found %v, %v", pat, alg, ok, err)
			}
		}
	}
	c.setFixed("checkpoint.load_us", "us", median(loads))
	return nil
}
