package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	fakeclick "repro"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/synth"
)

// sweepRec is what the replay keeps of one committed sweep for the checks
// that run after the timed replay.
type sweepRec struct {
	win    window
	groups []group
	err    error
}

func (r *runner) params() core.Params {
	p := core.DefaultParams()
	p.K1, p.K2, p.Alpha = paramK1, paramK2, paramAlpha
	p.THot, p.TClick = r.s.THot, r.s.TClick
	p.Workers = 0
	return p
}

func (r *runner) rules() rules {
	return rules{tHot: r.s.THot, tClick: r.s.TClick, k1: paramK1, alpha: paramAlpha}
}

// replayRound replays the event stream through a durable stream.Detector
// as cmd/stream -wal-dir does: clicks one by one, a sweep after every
// window, each committed sweep compiled and published to the verdict
// server, open-loop /v1/check traffic for the whole replay. Then the
// detector is closed and reopened from its WAL.
func (r *runner) replayRound(round int) error {
	s, in, tr := r.s, r.in, r.tr
	ctx := context.Background()
	params := r.params()
	roundDir := filepath.Join(r.dir, fmt.Sprintf("round%d", round))
	defer os.RemoveAll(roundDir)

	store := serve.NewStore(nil)
	srv, err := r.startServer(store)
	if err != nil {
		return err
	}
	epochs := newEpochLog()

	// The commit hook compiles and publishes every committed sweep, timing
	// both; published marks when the sweep's verdicts became queryable.
	var (
		call      int32 = -1
		published time.Time
		hookDur   time.Duration
	)
	hook := func(res *detect.Result, g *bipartite.Graph) {
		cid := tr.start("serve.Compile", call)
		t0 := time.Now()
		ix := serve.Compile(g, res, s.THot, s.TClick)
		t1 := time.Now()
		tr.end(cid)
		pid := tr.start("Store.Publish", call)
		err := epochs.publish(store, ix, fromDetect(res.Groups))
		published = time.Now()
		tr.end(pid)
		hookDur = published.Sub(t0)
		r.sample("compile_ms").addDur(t1.Sub(t0), time.Millisecond)
		r.sample("publish_us").addDur(published.Sub(t1), time.Microsecond)
		r.op("publish", err)
	}

	var (
		det       *stream.Detector
		sweeps    []sweepRec
		prev      int
		addClick  = r.sample("add_click_us")
		freshness = r.sample("freshness_ms")
		sweepMS   = r.sample("sweep_ms")
		prepMS    = r.sample("graph_prep_ms")
	)
	// sweepWindow feeds det the clicks of window wi one by one, then sweeps;
	// the commit hook publishes the sweep's verdicts.
	sweepWindow := func(wi int) {
		w := in.windows[wi]
		for _, e := range in.events[prev:w.end] {
			if tr == nil {
				det.AddClick(e.UserID, e.ItemID, e.Clicks)
				continue
			}
			id := tr.start("AddClick", -1)
			det.AddClick(e.UserID, e.ItemID, e.Clicks)
			addClick.addDur(tr.end(id), time.Microsecond)
		}
		prev = w.end
		accepted := time.Now()

		var o *obs.Observer
		if tr != nil {
			o = obs.NewObserver("sweep")
			det.Obs = o
		}
		gid := tr.start("Graph", -1)
		t0 := time.Now()
		det.Graph()
		t1 := time.Now()
		tr.end(gid)
		call = tr.start("DetectContext", -1)
		published, hookDur = time.Time{}, 0
		res, err := det.DetectContext(ctx)
		t2 := time.Now()
		tr.end(call)
		det.Obs = nil
		prepMS.addDur(t1.Sub(t0), time.Millisecond)
		sweepMS.addDur(t2.Sub(t1), time.Millisecond)
		rec := sweepRec{win: w, err: err}
		if err == nil && !published.IsZero() {
			rec.groups = fromDetect(res.Groups)
			freshness.addDur(published.Sub(accepted), time.Millisecond)
		} else if err == nil {
			rec.err = fmt.Errorf("sweep committed without publishing")
		}
		sweeps = append(sweeps, rec)
		if o != nil {
			o.Trace.Finish()
			tree := o.Trace.Export()
			var sweepTrees []*obs.SpanExport
			for _, c := range tree.Children {
				switch c.Name {
				case "stream.graph":
					r.lay.count(c)
					tr.attach(gid, c)
				case "stream.sweep":
					sweepTrees = append(sweepTrees, c)
					tr.attach(call, c)
				}
			}
			r.lay.addCore(sweepTrees, t2.Sub(t1), hookDur)
		}
	}

	// Set-up: open the detector on an empty WAL directory and bring it to
	// its first served epoch — the first window's clicks, a sweep, compile
	// and publish. It is repeated on fresh directories; the last detector
	// is kept and replays the rest of the stream. Snapshots are taken by
	// the replay loop below (SnapshotEvery) so that their time is measured
	// apart from the set-up's and the sweeps'.
	var walDir string
	for i := 0; i < s.SetupRepeats; i++ {
		dir := filepath.Join(roundDir, fmt.Sprintf("wal%d", i))
		keep := i == s.SetupRepeats-1
		id := tr.start("stream.Open", -1)
		t0 := time.Now()
		d, _, err := stream.Open(stream.Durability{Dir: dir, Sync: durable.SyncNever}, params, nil)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("open detector: %w", err)
		}
		if keep {
			det, walDir = d, dir
			det.OnCommit = hook
			sweepWindow(0)
			r.sample("setup_s").addDur(time.Since(t0), time.Second)
			break
		}
		err = firstEpoch(d, in.events[:in.windows[0].end], s)
		r.sample("setup_s").addDur(time.Since(t0), time.Second)
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.RemoveAll(dir)
		}
		r.op("set-up to the first epoch", err)
	}

	// Queries start once the first epoch is published.
	load := startLoad(srv.addr(), in.queries, s.QueryRate, 0)
	records := in.windows[0].end + 1 // WAL records since the last snapshot, commit record included
	start := time.Now()
	for wi := range in.windows {
		if wi > 0 {
			sweepWindow(wi)
			records += in.windows[wi].end - in.windows[wi-1].end + 1
		}
		if s.SnapshotEvery > 0 && records >= s.SnapshotEvery {
			r.op("snapshot", r.snapshot(det))
			records = 0
		}
	}
	elapsed := time.Since(start)
	load.halt()
	srv.stop()
	r.sample("throughput_per_s").add(float64(len(in.events)-in.windows[0].end) / elapsed.Seconds())
	r.sample("wal_bytes").add(float64(walSize(walDir)))
	if err := det.Close(); err != nil {
		return fmt.Errorf("close WAL: %w", err)
	}

	// Everything below runs after the timed replay. The collection first
	// clears the replay's garbage, so the recoveries start alike.
	r.collectQueries(load, epochs)
	r.checkSweeps(sweeps)
	runtime.GC()
	final := sweeps[len(sweeps)-1].groups
	for i := 0; i < s.Recoveries; i++ {
		r.recoverOnce(walDir, params, final, i == s.Recoveries-1)
	}
	r.batchDetection(final)
	return nil
}

// firstEpoch feeds a freshly opened detector the given clicks and sweeps
// once, compiling and publishing the sweep's verdicts to a store of its
// own: the set-up of a replay, repeated for its timing.
func firstEpoch(d *stream.Detector, evs []synth.Event, s spec) error {
	store := serve.NewStore(nil)
	var perr error
	d.OnCommit = func(res *detect.Result, g *bipartite.Graph) {
		perr = store.Publish(serve.Compile(g, res, s.THot, s.TClick))
	}
	for _, e := range evs {
		d.AddClick(e.UserID, e.ItemID, e.Clicks)
	}
	d.Graph()
	if _, err := d.DetectContext(context.Background()); err != nil {
		return err
	}
	if store.Epoch() != 1 {
		return fmt.Errorf("sweep committed without publishing")
	}
	return perr
}

// snapshot persists the detector's state, as cmd/stream's automatic
// snapshots do, timing the call.
func (r *runner) snapshot(det *stream.Detector) error {
	o := obs.NewObserver("snapshot")
	det.Obs = o
	id := r.tr.start("Snapshot", -1)
	t0 := time.Now()
	err := det.Snapshot()
	d := time.Since(t0)
	r.tr.end(id)
	det.Obs = nil
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	r.sample("snapshot_ms").addDur(d, time.Millisecond)
	r.sample("snapshot_bytes").add(float64(o.Metrics.Gauge("stream.snapshot.bytes").Value()))
	return nil
}

// walSize is the size of the WAL segments in dir.
func walSize(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}

// checkSweeps checks every committed sweep against the benchmark's own
// aggregate of the clicks up to its window.
func (r *runner) checkSweeps(sweeps []sweepRec) {
	agg := r.in.scratch
	agg.reset()
	prev := 0
	rl := r.rules()
	for i, sw := range sweeps {
		for _, e := range r.in.events[prev:sw.win.end] {
			agg.add(e.UserID, e.ItemID, e.Clicks)
		}
		prev = sw.win.end
		err := sw.err
		if err == nil {
			err = checkScreening(agg, sw.groups, rl)
		}
		if err == nil && sw.win.day < r.s.Stream.AttackStartDay {
			err = checkNone(sw.groups, sw.win.day)
		}
		if err == nil && i == len(sweeps)-1 {
			var q quality
			q, err = checkQuality(sw.groups, r.in.truth)
			fmt.Fprintf(r.log, "final sweep: %d groups, %v\n", len(sw.groups), q)
		}
		r.op(fmt.Sprintf("sweep %d (day %d)", i+1, sw.win.day), err)
	}
}

// recoverOnce reopens the replay's WAL directory, timing stream.Open, and
// checks the recovered state: the graph must hold the benchmark's
// aggregate, and with sweep set the recovered detector's next sweep must
// return the groups of the last committed sweep.
func (r *runner) recoverOnce(walDir string, params core.Params, want []group, sweep bool) {
	id := r.tr.start("stream.Open", -1)
	t0 := time.Now()
	d, info, err := stream.Open(stream.Durability{Dir: walDir, Sync: durable.SyncNever}, params, nil)
	r.sample("recover_s").addDur(time.Since(t0), time.Second)
	r.tr.end(id)
	if err != nil {
		r.op("recovery", err)
		return
	}
	r.sample("replayed_records").add(float64(info.Replayed))
	g := d.Graph()
	err = checkRecoveredGraph(g.LiveEdges(), g.LiveClicks(), r.in.agg)
	if err == nil && sweep {
		var res *detect.Result
		res, err = d.DetectContext(context.Background())
		if err == nil {
			err = checkSameGroups(fromDetect(res.Groups), want)
		}
		if err != nil {
			err = fmt.Errorf("first sweep after recovery: %w", err)
		}
	}
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	r.op("recovery", err)
}

// batchDetection runs one cold facade detection of the whole stream's
// aggregate and holds it to the checks of the final sweep, whose F1 it
// must match within f1Tolerance.
func (r *runner) batchDetection(final []group) {
	g := fakeclick.NewGraph()
	for k, w := range r.in.agg.w {
		g.AddClicks(uint32(k>>32), uint32(k), uint32(w))
	}
	rep, d, err := r.detect(g, r.facadeConfig(), newLayers())
	if err == nil {
		r.sample("detect_ms").addDur(d, time.Millisecond)
		gs := fromFacade(rep.Groups)
		err = checkScreening(r.in.agg, gs, r.rules())
		var qb quality
		if err == nil {
			qb, err = checkQuality(gs, r.in.truth)
		}
		if err == nil {
			err = checkF1Close(evaluate(final, r.in.truth), qb)
		}
	}
	r.op("batch detection of the final aggregate", err)
}

func (r *runner) facadeConfig() fakeclick.Config {
	return fakeclick.Config{K1: paramK1, K2: paramK2, Alpha: paramAlpha, THot: r.s.THot, TClick: r.s.TClick}
}

func fromFacade(gs []fakeclick.Group) []group {
	out := make([]group, len(gs))
	for i, g := range gs {
		out[i] = group{users: g.Users, items: g.Items}
	}
	return out
}
