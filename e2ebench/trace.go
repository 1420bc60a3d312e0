package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer records spans from the benchmark's own code around each public
// call it makes into the program. Spans stay in memory and are written to
// one file when the run ends. A nil tracer records nothing, which is how
// untraced runs measure the end-to-end metrics.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	names  []string
	nameID map[string]uint16
	spans  []spanRec
	// trees are the span trees an obs.Observer recorded inside each sweep
	// or detection, keyed to the benchmark span around the call.
	trees []opTree
}

type spanRec struct {
	name   uint16
	parent int32
	start  int64 // ns since the run started
	dur    int64 // ns; -1 while open
}

type opTree struct {
	call int32
	tree *obs.SpanExport
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), nameID: map[string]uint16{}}
}

// start opens a span under parent (-1 for none) and returns its id.
func (t *tracer) start(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id, ok := t.nameID[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameID[name] = id
	}
	t.spans = append(t.spans, spanRec{name: id, parent: parent, start: now, dur: -1})
	sid := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return sid
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id]
	s.dur = now - s.start
	d := s.dur
	t.mu.Unlock()
	return time.Duration(d)
}

// attach keeps the observer's span tree recorded inside call.
func (t *tracer) attach(call int32, tree *obs.SpanExport) {
	if t == nil || tree == nil {
		return
	}
	t.mu.Lock()
	t.trees = append(t.trees, opTree{call: call, tree: tree})
	t.mu.Unlock()
}

// write stores every span, the attached trees and the summary in one
// gzip-compressed JSON-lines file.
func (t *tracer) write(path string, summary any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(summary); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		// Hand-formatted: a replay records one span per click.
		line := strconv.AppendInt([]byte(`{"id":`), int64(i), 10)
		line = fmt.Appendf(line, `,"name":%q,"parent":%d,"start_ns":%d,"dur_ns":%d}`+"\n",
			t.names[s.name], s.parent, s.start, s.dur)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	for _, tr := range t.trees {
		if err := enc.Encode(map[string]any{"call": tr.call, "obs": tr.tree}); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// layerOf maps the program's own span names (recorded by obs inside a
// sweep or detection) to the benchmark's per-layer metrics. Names absent
// here are orchestration spans whose self time no layer claims; it is
// reported as trace.unaccounted_ms.
var layerOf = map[string]string{
	"hotset":          "core.hotset_ms",
	"graph_generator": "core.graph_generator_ms",
	"global_core":     "core.global_core_ms",
	"shard_plan":      "core.shard_plan_ms",
	"shard":           "core.square_ms",
	"round":           "core.square_ms",
	"single_pass":     "core.square_ms",
	"extract":         "core.extract_ms",
	"screening":       "core.screen_ms",
	"behavior_checks": "core.screen_ms",
	"repartition":     "core.screen_ms",
	"identification":  "core.identify_ms",
	"report":          "core.identify_ms",
	"seed_filter":     "stream.seed_filter_ms",
	"dirty_expand":    "stream.dirty_expand_ms",
	"stream.graph":    "bipartite.graph_prep_ms",
}

// selfTimes walks an obs span tree and reports every span's self time:
// its duration minus its children's. Where children overlap because they
// ran in parallel (the shards of one prune), their durations add up to
// more than the parent's; the parent then has no self time and the whole
// subtree is scaled down to the parent's wall time, so self times always
// add up to the root's duration.
func selfTimes(e *obs.SpanExport, fn func(name string, self float64)) {
	var walk func(e *obs.SpanExport, factor float64)
	walk = func(e *obs.SpanExport, factor float64) {
		d := float64(e.DurationNS) * factor
		c := 0.0
		for _, ch := range e.Children {
			c += float64(ch.DurationNS) * factor
		}
		childFactor := factor
		self := d - c
		if c > d && c > 0 {
			self = 0
			childFactor = factor * d / c
		}
		fn(e.Name, self)
		for _, ch := range e.Children {
			walk(ch, childFactor)
		}
	}
	walk(e, 1)
}

// attrInt returns the integer attribute key of e (0 when absent).
func attrInt(e *obs.SpanExport, key string) int64 {
	for _, a := range e.Attrs {
		if a.Key == key {
			n, _ := strconv.ParseInt(a.Value, 10, 64)
			return n
		}
	}
	return 0
}

func attr(e *obs.SpanExport, key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// walkSpans visits every span of the subtree.
func walkSpans(e *obs.SpanExport, fn func(*obs.SpanExport)) {
	if e == nil {
		return
	}
	fn(e)
	for _, c := range e.Children {
		walkSpans(c, fn)
	}
}

// layers accumulates per-layer totals over a run's traced operations.
type layers struct {
	sums map[string]float64
	max  map[string]float64
	ops  int // sweeps or detections added with addCore
}

func newLayers() *layers {
	return &layers{sums: map[string]float64{}, max: map[string]float64{}}
}

func (l *layers) add(name string, v float64) { l.sums[name] += v }

// perOp is the mean of a summed metric per sweep or detection.
func (l *layers) perOp(name string) float64 {
	if l.ops == 0 {
		return 0
	}
	return l.sums[name] / float64(l.ops)
}

func (l *layers) keepMax(name string, v float64) {
	if v > l.max[name] {
		l.max[name] = v
	}
}

// addCore takes the core-layer times and counts of one sweep or detection
// from the obs trees recorded inside it, where callDur is the benchmark's
// own span around the call and extra is time spent inside the call in
// spans the benchmark itself recorded (the commit hook's compile and
// publish). The remainder no layer claims goes to trace.unaccounted_ms.
func (l *layers) addCore(trees []*obs.SpanExport, callDur time.Duration, extra time.Duration) {
	l.ops++
	accounted := float64(extra) / 1e6
	for _, tree := range trees {
		selfTimes(tree, func(name string, self float64) {
			if m, ok := layerOf[name]; ok {
				ms := self / 1e6
				l.add(m, ms)
				accounted += ms
			}
		})
		l.count(tree)
	}
	l.add("trace.unaccounted_ms", float64(callDur)/1e6-accounted)
	l.add("trace.call_ms", float64(callDur)/1e6)
}

// count takes the work counts the program's spans carry as attributes.
func (l *layers) count(tree *obs.SpanExport) {
	walkSpans(tree, func(e *obs.SpanExport) {
		switch e.Name {
		case "shard_plan":
			l.add("core.shards", float64(attrInt(e, "shards")))
		case "shard":
			l.keepMax("core.largest_shard_users", float64(attrInt(e, "users")))
		case "round":
			l.add("core.square_rounds", 1)
			l.add("core.square_evaluated", float64(attrInt(e, "frontier_size")))
			l.add("core.square_removed", float64(attrInt(e, "square_users_removed")+attrInt(e, "square_items_removed")))
		case "prune":
			l.add("core.cache_hits", float64(attrInt(e, "cache_hits")))
			l.add("core.cache_misses", float64(attrInt(e, "cache_misses")))
		case "stream.sweep":
			l.add("stream.dirty_users", float64(attrInt(e, "dirty_users")))
		case "seed_filter":
			l.add("stream.seed_users", float64(attrInt(e, "seeds")))
		case "dirty_expand":
			l.add("stream.scope_users", float64(attrInt(e, "scope_users")))
		case "stream.graph":
			if attr(e, "mode") == "patch" {
				l.add("bipartite.patches", 1)
			} else {
				l.add("bipartite.rebuilds", 1)
			}
			l.add("bipartite.delta_rows", float64(attrInt(e, "delta_rows")))
		}
	})
}
