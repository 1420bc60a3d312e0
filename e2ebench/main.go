// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload through the program's public entry points — the durable
// streaming detector (internal/stream), the fakeclick facade and the
// verdict server (internal/serve) on loopback — checks every output
// against data it computes itself, and prints one JSON result line:
//
//	go run . --workload replay-daily --seed 1 --seconds 40 --trace 0
//
// Workloads are replay-daily, replay-intraday and batch-serve (or all).
// --trace 0 prints the end-to-end metrics; --trace 1 makes a traced run
// that prints the per-layer metrics and writes its spans to
// <out>/trace-<workload>.json.gz. See README.md for the workloads, the
// metrics and the checks.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "replay-daily, replay-intraday, batch-serve or all")
	seed := fs.Int64("seed", 1, "run seed: the event stream's day assignment and order, and the query mix")
	genSeed := fs.Int64("gen-seed", 1, "generator seed: the marketplace (users, items, attack groups)")
	seconds := fs.Int("seconds", 40, "run length: sets the number of whole rounds (see round_seconds in the printed config)")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for WAL state and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	var chosen []spec
	if *workload == "all" {
		chosen = specs
	} else if s, ok := findSpec(*workload); ok {
		chosen = []spec{s}
	} else {
		fmt.Fprintf(stderr, "e2ebench: unknown --workload %q (want replay-daily, replay-intraday, batch-serve or all)\n", *workload)
		return 2
	}
	for _, s := range chosen {
		res, err := runWorkload(s.withSeeds(*seed, *genSeed), *seconds, *traceFlag == 1, *out, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", s.Name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints; perLayer those a traced
// run prints. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"freshness_ms", "ms"},
	{"recover_s", "s"},
	{"peak_heap_mb", "MB"},
}

// tails are the percentiles of the two latency distributions: freshness
// and /v1/check latency. Their run-to-run spread on a shared 2-CPU machine
// is wider than the largest bound a gate may use (see README.md), so they
// are printed — untraced runs on an info line, traced runs among the
// per-layer metrics — but not gated.
var tails = []metricDef{
	{"tail.freshness_p50_ms", "ms"},
	{"tail.freshness_p95_ms", "ms"},
	{"tail.check_p50_ms", "ms"},
	{"tail.check_p99_ms", "ms"},
}

var perLayer = []metricDef{
	{"stream.add_click_us", "us"},
	{"stream.sweep_ms", "ms"},
	{"stream.dirty_users", "count"},
	{"stream.seed_users", "count"},
	{"stream.scope_users", "count"},
	{"stream.seed_filter_ms", "ms"},
	{"stream.dirty_expand_ms", "ms"},
	{"bipartite.graph_prep_ms", "ms"},
	{"bipartite.patches", "count"},
	{"bipartite.rebuilds", "count"},
	{"bipartite.delta_rows", "count"},
	{"bipartite.build_ms", "ms"},
	{"durable.wal_bytes", "bytes"},
	{"durable.snapshots", "count"},
	{"durable.snapshot_bytes", "bytes"},
	{"durable.snapshot_ms", "ms"},
	{"durable.replayed_records", "count"},
	{"core.detect_ms", "ms"},
	{"core.square_ms", "ms"},
	{"core.square_rounds", "count"},
	{"core.square_evaluated", "count"},
	{"core.square_removed", "count"},
	{"core.shards", "count"},
	{"core.largest_shard_users", "count"},
	{"core.hotset_ms", "ms"},
	{"core.graph_generator_ms", "ms"},
	{"core.global_core_ms", "ms"},
	{"core.shard_plan_ms", "ms"},
	{"core.extract_ms", "ms"},
	{"core.screen_ms", "ms"},
	{"core.identify_ms", "ms"},
	{"core.cache_hits", "count"},
	{"core.cache_misses", "count"},
	{"core.cache_bypassed", "count"},
	{"serve.compile_ms", "ms"},
	{"serve.publish_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.epochs", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"load.check_late_ms", "ms"},
	{"load.generate_s", "s"},
	{"trace.unaccounted_ms", "ms"},
	{"trace.unaccounted_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runner is one run of one workload: its inputs, what it measured and how
// its checked operations went.
type runner struct {
	s   spec
	in  *inputs
	tr  *tracer // nil in untraced runs
	lay *layers // per-layer sums over the main operations (sweeps or cold detections)
	// cacheLay holds the cache counts of batch-serve's resweeps.
	cacheLay *layers
	dir      string
	log      io.Writer

	m map[string]*samples

	attempted  int
	failed     int
	unexpected []string

	// heapBase is the live heap after generation, before the first round;
	// peakHeap the highest heap in use sampled during the rounds.
	heapBase, peakHeap float64
}

func (r *runner) sample(name string) *samples {
	s, ok := r.m[name]
	if !ok {
		s = &samples{}
		r.m[name] = s
	}
	return s
}

// op records one checked operation; a non-nil err fails it.
func (r *runner) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.unexpected = append(r.unexpected, what+": "+err.Error())
	}
}

// knownFault records the one operation expected to fail on today's code:
// the DefaultConfig detection of ROADMAP item 4. Its failure is counted
// but does not make the run incorrect.
func (r *runner) knownFault(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "known fault: %s: %v\n", what, err)
	}
}

func runWorkload(s spec, seconds int, traced bool, out string, stdout io.Writer) (*result, error) {
	in, err := generate(s)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "workload %s seed %d gen-seed %d: inputs sha256:%s, %d events, %d table rows, %d sweeps, %d labelled nodes, generated in %.2fs\n",
		s.Name, s.Seed, s.Gen.Seed, in.digest, len(in.events), in.ds.Table.Len(), len(in.windows), in.truth.size(), in.genTime.Seconds())
	fmt.Fprintf(stdout, "config %s\n", s.configJSON())

	dir := filepath.Join(out, fmt.Sprintf("%s-%d", s.Name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &runner{s: s, in: in, dir: dir, log: stdout, m: map[string]*samples{},
		lay: newLayers(), cacheLay: newLayers()}
	if traced {
		r.tr = newTracer()
	}
	round := r.batchRound
	if s.replay() {
		round = r.replayRound
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	r.heapBase = float64(ms0.HeapAlloc)
	stopHeap := r.watchHeap()
	// Whole rounds, as many as --seconds sets, so every run of a workload
	// attempts the same operations however fast the program is.
	rounds := s.rounds(seconds)
	for i := 0; i < rounds; i++ {
		if err := round(i); err != nil {
			stopHeap()
			return nil, err
		}
	}
	stopHeap()
	runtime.ReadMemStats(&ms1)

	res := &result{Correct: len(r.unexpected) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for i, msg := range r.unexpected {
		if i == 10 {
			fmt.Fprintf(stdout, "... %d more failed operations\n", len(r.unexpected)-i)
			break
		}
		fmt.Fprintf(stdout, "FAILED %s\n", msg)
	}
	e2e := r.endToEnd()
	tl := r.tails()
	if !traced {
		info, _ := json.Marshal(tl) // finite numbers and strings: cannot fail
		fmt.Fprintf(stdout, "tails %s\n", info)
		res.Metrics = e2e
		return res, nil
	}
	layer := r.perLayer(rounds, ms0, ms1)
	for k, v := range tl {
		layer[k] = v
	}
	res.Metrics = layer
	traced2e, _ := json.Marshal(e2e) // finite numbers and strings: cannot fail
	fmt.Fprintf(stdout, "traced end_to_end %s\n", traced2e)
	path := filepath.Join(out, "trace-"+s.Name+".json.gz")
	if err := r.tr.write(path, map[string]any{"workload": s.Name, "seed": s.Seed, "gen_seed": s.Gen.Seed, "rounds": rounds,
		"end_to_end": e2e, "per_layer": layer}); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(stdout, "trace written to %s\n", path)
	return res, nil
}

func (r *runner) endToEnd() map[string]metricValue {
	m := map[string]metricValue{}
	q := func(name string) float64 { return r.sample(name).median() }
	vals := map[string]float64{
		"setup_s":          q("setup_s"),
		"throughput_per_s": q("throughput_per_s"),
		"freshness_ms":     r.freshness(),
		"recover_s":        q("recover_s"),
		"peak_heap_mb":     (r.peakHeap - r.heapBase) / (1 << 20),
	}
	for _, d := range endToEnd {
		m[d.name] = metricValue{Value: measured(vals[d.name]), Unit: d.unit}
	}
	return m
}

// freshness is the mean over a replay's sweeps, whose cost grows with the
// history, so that every sweep counts; and the median over batch-serve's
// resweeps, which all do the same work.
func (r *runner) freshness() float64 {
	f := r.sample("freshness_ms")
	if r.s.replay() {
		return f.mean()
	}
	return f.median()
}

// measured maps a metric with no samples — every operation behind it
// failed, and the failures are counted — to 0, which JSON can carry.
func measured(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func (r *runner) tails() map[string]metricValue {
	f, c := r.sample("freshness_ms"), r.sample("check_ms")
	vals := map[string]float64{
		"tail.freshness_p50_ms": f.quantile(0.5),
		"tail.freshness_p95_ms": f.quantile(0.95),
		"tail.check_p50_ms":     c.quantile(0.5),
		"tail.check_p99_ms":     c.quantile(0.99),
	}
	m := map[string]metricValue{}
	for _, d := range tails {
		m[d.name] = metricValue{Value: measured(vals[d.name]), Unit: d.unit}
	}
	return m
}

func (r *runner) perLayer(rounds int, ms0, ms1 runtime.MemStats) map[string]metricValue {
	vals := map[string]float64{}
	for _, d := range perLayer {
		vals[d.name] = r.lay.perOp(d.name)
	}
	vals["core.largest_shard_users"] = r.lay.max["core.largest_shard_users"]
	// The cache counts are per sweep on the replays and per resweep on
	// batch-serve, the only workload whose detections consult the cache.
	cl := r.lay
	if !r.s.replay() {
		cl = r.cacheLay
	}
	vals["core.cache_hits"] = cl.perOp("core.cache_hits")
	vals["core.cache_misses"] = cl.perOp("core.cache_misses")
	vals["core.cache_bypassed"] = cl.perOp("core.shards") - vals["core.cache_hits"] - vals["core.cache_misses"]
	q := func(name string, p float64) float64 { return measured(r.sample(name).quantile(p)) }
	vals["core.detect_ms"] = q("detect_ms", 0.5)
	vals["stream.add_click_us"] = q("add_click_us", 0.5)
	vals["stream.sweep_ms"] = q("sweep_ms", 0.5)
	vals["bipartite.graph_prep_ms"] = q("graph_prep_ms", 0.5)
	vals["bipartite.build_ms"] = q("build_ms", 0.5)
	vals["durable.wal_bytes"] = q("wal_bytes", 0.5)
	vals["durable.snapshots"] = r.sample("snapshot_ms").countPer(rounds)
	vals["durable.snapshot_bytes"] = q("snapshot_bytes", 0.5)
	vals["durable.snapshot_ms"] = q("snapshot_ms", 0.5)
	vals["durable.replayed_records"] = q("replayed_records", 0.5)
	vals["serve.compile_ms"] = q("compile_ms", 0.5)
	vals["serve.publish_us"] = q("publish_us", 0.5)
	vals["serve.handler_us"] = q("handler_us", 0.5)
	vals["serve.epochs"] = r.sample("publish_us").countPer(rounds)
	vals["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(rounds)
	vals["runtime.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / float64(rounds)
	vals["load.check_late_ms"] = q("check_late_ms", 0.99)
	vals["load.generate_s"] = r.in.genTime.Seconds()
	if call := r.lay.sums["trace.call_ms"]; call > 0 {
		vals["trace.unaccounted_pct"] = 100 * r.lay.sums["trace.unaccounted_ms"] / call
	}
	m := map[string]metricValue{}
	for _, d := range perLayer {
		m[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return m
}

func (s samples) countPer(rounds int) float64 { return float64(len(s)) / float64(rounds) }

// watchHeap samples the Go heap in use every 10 ms until the returned
// function is called, keeping the peak.
func (r *runner) watchHeap() (stop func()) {
	probe := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(probe)
		v := float64(probe[0].Value.Uint64() + probe[1].Value.Uint64())
		if v > r.peakHeap {
			r.peakHeap = v
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		read()
	}
}

// server is the verdict query API on a loopback port.
type server struct {
	srv   *http.Server
	ln    net.Listener
	done  chan struct{}
	store *serve.Store
}

// startServer serves store with serve.NewServer. In traced runs each
// request is timed around ServeHTTP.
func (r *runner) startServer(store *serve.Store) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = serve.NewServer(store, serve.Options{MaxInflight: 256})
	if r.tr != nil {
		inner := h
		var mu sync.Mutex
		handler := r.sample("handler_us")
		h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			id := r.tr.start("ServeHTTP", -1)
			inner.ServeHTTP(w, req)
			d := r.tr.end(id)
			mu.Lock()
			handler.addDur(d, time.Microsecond)
			mu.Unlock()
		})
	}
	s := &server{srv: &http.Server{Handler: h}, ln: ln, done: make(chan struct{}), store: store}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(r.log, "verdict server: %v\n", err)
		}
	}()
	return s, nil
}

func (s *server) addr() string { return s.ln.Addr().String() }

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // in-flight requests finished or the deadline passed; either way serving is over
	<-s.done
}

// epochLog keeps the groups of every published epoch, recorded before the
// epoch becomes visible, so answers can be checked against the epoch they
// name.
type epochLog struct {
	mu     sync.Mutex
	groups map[uint64][]group
	index  map[uint64]*verdicts
}

func newEpochLog() *epochLog {
	return &epochLog{groups: map[uint64][]group{}, index: map[uint64]*verdicts{}}
}

func (e *epochLog) put(epoch uint64, gs []group) {
	e.mu.Lock()
	e.groups[epoch] = gs
	e.mu.Unlock()
}

func (e *epochLog) lookup(epoch uint64) (*verdicts, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if vs, ok := e.index[epoch]; ok {
		return vs, true
	}
	gs, ok := e.groups[epoch]
	if !ok {
		return nil, false
	}
	vs := indexGroups(gs)
	e.index[epoch] = vs
	return vs, true
}

// publish records gs as the next epoch and publishes ix.
func (e *epochLog) publish(store *serve.Store, ix *serve.Index, gs []group) error {
	e.put(store.Epoch()+1, gs)
	return store.Publish(ix)
}

// collectQueries checks every answer of a finished load and, for an
// open-loop load, records the latency samples: each request is one checked
// operation.
func (r *runner) collectQueries(l *loadGen, epochs *epochLog) {
	lat, late := r.sample("check_ms"), r.sample("check_late_ms")
	for c, rs := range l.results {
		var seen []uint64
		for _, res := range rs {
			if l.rate > 0 {
				lat.addDur(res.latency, time.Millisecond)
				late.addDur(res.late, time.Millisecond)
			}
			err := res.err
			if err == nil {
				var epoch uint64
				epoch, err = checkAnswer(l.queries[res.k%int64(len(l.queries))], res.status, res.body, epochs.lookup)
				seen = append(seen, epoch)
			}
			r.op(fmt.Sprintf("/v1/check #%d", res.k), err)
		}
		// Monotone epochs per client, in the order it received them.
		r.op(fmt.Sprintf("client %d epoch order", c), checkMonotone(seen))
	}
}
