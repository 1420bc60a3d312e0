package main

import (
	"context"
	"fmt"
	"time"

	fakeclick "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// batchRound is the shape of cmd/serve -resweep on the aggregated table:
// restarts from the table, each published to the verdict server, the
// DefaultConfig detection, and serving, where open-loop /v1/check traffic
// runs beside resweeps that share one verdict cache and republish the
// unchanged graph, followed by a closed-loop burst of /v1/check requests.
func (r *runner) batchRound(round int) error {
	s, in := r.s, r.in
	ctx := context.Background()

	// Set-up: build the click graph from the table. Each restart below
	// builds it again, and those builds are set-up samples too.
	for i := 0; i < s.SetupRepeats; i++ {
		_, d := r.buildGraph()
		r.sample("setup_s").addDur(d, time.Second)
	}

	store := serve.NewStore(nil)
	srv, err := r.startServer(store)
	if err != nil {
		return err
	}
	defer srv.stop()
	epochs := newEpochLog()
	cfg := r.facadeConfig()

	// The round is Restarts slices, so that every metric's samples spread
	// over the whole round instead of one short stretch of machine time.
	// Each slice restarts from the table — build, detect with no cache,
	// compile and publish, as a restarted cmd/serve does, which keeps no
	// state — and then serves: its share of the open-loop queries beside
	// its share of the resweeps, ResweepEvery apart, and one closed-loop
	// burst.
	var (
		cold   []group
		warm   = cfg
		slices = s.Restarts
	)
	warm.Cache = fakeclick.NewVerdictCache(0)
	for c := 0; c < slices; c++ {
		t0 := time.Now()
		g, build := r.buildGraph()
		r.sample("setup_s").addDur(build, time.Second)
		rep, d, err := r.detect(g, cfg, r.lay)
		if err == nil {
			err = r.publish(store, epochs, rep)
		}
		cycle := time.Since(t0)
		if err == nil {
			r.sample("detect_ms").addDur(d, time.Millisecond)
			r.sample("recover_s").addDur(cycle, time.Second)
			gs := fromFacade(rep.Groups)
			err = checkScreening(in.agg, gs, r.rules())
			if err == nil {
				var q quality
				q, err = checkQuality(gs, in.truth)
				if c == 0 && round == 0 {
					fmt.Fprintf(r.log, "cold detection: %d groups, %v\n", len(gs), q)
				}
			}
			if err == nil && cold != nil {
				err = checkSameGroups(gs, cold)
			}
			if cold == nil {
				cold = gs
			}
		}
		r.op("cold detection", err)

		if c == 0 {
			r.defaultConfigDetection(g)
			// The shared cache is filled by one detection before serving.
			rep, err := fakeclick.DetectContext(ctx, g, warm)
			if err == nil {
				err = checkSameGroups(fromFacade(rep.Groups), cold)
			}
			r.op("cache-filling detection", err)
		}

		load := startLoad(srv.addr(), in.queries, s.QueryRate, s.Queries/slices)
		phase := time.Now()
		for i := 0; i < s.Resweeps/slices; i++ {
			if d := time.Until(phase.Add(time.Duration(i) * s.ResweepEvery)); d > 0 {
				time.Sleep(d)
			}
			t0 := time.Now()
			rep, _, err := r.detect(g, warm, r.cacheLay)
			if err == nil {
				err = r.publish(store, epochs, rep)
			}
			if err == nil {
				r.sample("freshness_ms").addDur(time.Since(t0), time.Millisecond)
				err = checkSameGroups(fromFacade(rep.Groups), cold)
			}
			r.op("cached resweep", err)
		}
		load.wait()
		r.collectQueries(load, epochs)

		burst := startLoad(srv.addr(), in.queries, 0, s.BurstQueries)
		burst.wait()
		r.sample("throughput_per_s").add(float64(s.BurstQueries) / burst.elapsed.Seconds())
		r.collectQueries(burst, epochs)
	}
	return nil
}

// defaultConfigDetection runs the documented default path, thresholds
// derived from the data, and holds it to the same floors as the tuned
// thresholds. It fails on today's code: the known fault.
func (r *runner) defaultConfigDetection(g *fakeclick.Graph) {
	rep, err := fakeclick.DetectContext(context.Background(), g, fakeclick.DefaultConfig())
	if err == nil {
		if _, err = checkQuality(fromFacade(rep.Groups), r.in.truth); err != nil {
			err = fmt.Errorf("T_hot=%d T_click=%d: %d groups, %w", rep.THot, rep.TClick, len(rep.Groups), err)
		}
	}
	r.knownFault("DefaultConfig detection", err)
}

// buildGraph builds the facade's click graph from the table rows, as
// cmd/serve's loader does.
func (r *runner) buildGraph() (*fakeclick.Graph, time.Duration) {
	id := r.tr.start("fakeclick.NewGraph", -1)
	t0 := time.Now()
	g := fakeclick.NewGraph()
	for _, e := range r.in.rows {
		g.AddClicks(e.UserID, e.ItemID, e.Clicks)
	}
	g.NumEdges() // builds the graph
	d := time.Since(t0)
	r.tr.end(id)
	r.sample("build_ms").addDur(d, time.Millisecond)
	return g, d
}

// detect runs one facade detection. In traced runs an observer records
// the pipeline's spans, whose layer times and counts go to lay.
func (r *runner) detect(g *fakeclick.Graph, cfg fakeclick.Config, lay *layers) (*fakeclick.Report, time.Duration, error) {
	var o *obs.Observer
	if r.tr != nil {
		o = obs.NewObserver("detect")
		cfg.Observer = o
	}
	id := r.tr.start("fakeclick.DetectContext", -1)
	t0 := time.Now()
	rep, err := fakeclick.DetectContext(context.Background(), g, cfg)
	d := time.Since(t0)
	r.tr.end(id)
	if o != nil {
		o.Trace.Finish()
		tree := o.Trace.Export()
		r.tr.attach(id, tree)
		lay.addCore(tree.Children, d, 0)
	}
	if err == nil && rep.Partial {
		err = fmt.Errorf("partial report: %v", rep.Err)
	}
	return rep, d, err
}

// publish compiles the report's verdict index and publishes it.
func (r *runner) publish(store *serve.Store, epochs *epochLog, rep *fakeclick.Report) error {
	cid := r.tr.start("serve.Compile", -1)
	t0 := time.Now()
	ix := rep.Index()
	t1 := time.Now()
	r.tr.end(cid)
	pid := r.tr.start("Store.Publish", -1)
	err := epochs.publish(store, ix, fromFacade(rep.Groups))
	t2 := time.Now()
	r.tr.end(pid)
	r.sample("compile_ms").addDur(t1.Sub(t0), time.Millisecond)
	r.sample("publish_us").addDur(t2.Sub(t1), time.Microsecond)
	return err
}
