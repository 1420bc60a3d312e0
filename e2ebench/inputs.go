package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bipartite"
	"repro/internal/synth"
)

// inputs are a workload's generated inputs. The program under test only
// ever sees events (replays) or table rows (batch-serve); the labels and
// the query pool stay on the benchmark's side.
type inputs struct {
	ds     *synth.Dataset
	events []synth.Event // replays: the day-ordered stream
	rows   []synth.Event // batch-serve: the aggregated table (Day 0)
	// windows[k] is the end index (exclusive) in events of sweep window k.
	windows []window
	truth   labels
	queries []query
	// agg is the benchmark's own aggregate of every click, and scratch an
	// empty aggregate sized to hold it, refilled window by window when the
	// replay's sweeps are checked. Both are built here, before the heap
	// baseline is read, so peak_heap_mb does not count them.
	agg, scratch *aggregate
	digest       string
	genTime      time.Duration
}

type window struct {
	day int
	end int
}

// labels is the generator's ground truth as plain sets.
type labels struct {
	users map[uint32]bool
	items map[uint32]bool
}

func (l labels) size() int { return len(l.users) + len(l.items) }

func generate(s spec) (*inputs, error) {
	start := time.Now()
	ds, err := synth.Generate(s.Gen)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	in := &inputs{ds: ds, truth: labels{users: map[uint32]bool{}, items: map[uint32]bool{}}}
	for u := range ds.Truth.Users {
		in.truth.users[uint32(u)] = true
	}
	for v := range ds.Truth.Items {
		in.truth.items[uint32(v)] = true
	}
	if s.replay() {
		in.events, err = synth.EventStream(ds, s.Stream)
		if err != nil {
			return nil, fmt.Errorf("event stream: %w", err)
		}
		in.windows = cutWindows(in.events, s.SweepsPerDay)
		in.digest = digestEvents(in.events)
	} else {
		for i := 0; i < ds.Table.Len(); i++ {
			r := ds.Table.Row(i)
			in.rows = append(in.rows, synth.Event{UserID: r.UserID, ItemID: r.ItemID, Clicks: r.Clicks})
		}
		in.digest = digestEvents(in.rows)
	}
	src := in.events
	if src == nil {
		src = in.rows
	}
	in.agg = newAggregate()
	for _, e := range src {
		in.agg.add(e.UserID, e.ItemID, e.Clicks)
	}
	in.scratch = &aggregate{w: make(map[uint64]uint64, len(in.agg.w)), itemTotal: make(map[uint32]uint64, len(in.agg.itemTotal))}
	in.queries = queryPool(rand.New(rand.NewSource(s.Seed)), ds, src)
	in.genTime = time.Since(start)
	return in, nil
}

// cutWindows splits each day's events into perDay windows of equal event
// count (the last window of a day takes the remainder). Empty windows are
// dropped, so every sweep follows at least one click.
func cutWindows(evs []synth.Event, perDay int) []window {
	var out []window
	for i := 0; i < len(evs); {
		day := evs[i].Day
		j := i
		for j < len(evs) && evs[j].Day == day {
			j++
		}
		n := j - i
		for k := 1; k <= perDay; k++ {
			end := i + n*k/perDay
			if end > i && (len(out) == 0 || out[len(out)-1].end < end) {
				out = append(out, window{day: day, end: end})
			}
		}
		i = j
	}
	return out
}

// query is one /v1/check request: its JSON body and the entries it asks
// about, kept for checking the answer.
type query struct {
	body    []byte
	entries []checkEntry
}

type checkEntry struct {
	kind       string // "user", "item" or "pair"
	user, item uint32
}

const queryPoolSize = 1024

// queryPool builds the request pool. Each request asks about 8 entries:
// 2 users, 2 items and 4 pairs. Half of the users, items and pairs come
// from the implanted groups (so the answers are often "suspicious"), the
// rest from random clicks of the input.
func queryPool(rng *rand.Rand, ds *synth.Dataset, clicks []synth.Event) []query {
	pool := make([]query, queryPoolSize)
	pick := func(xs []bipartite.NodeID) uint32 { return uint32(xs[rng.Intn(len(xs))]) }
	for q := range pool {
		anyClick := func() synth.Event { return clicks[rng.Intn(len(clicks))] }
		grp := ds.Groups[rng.Intn(len(ds.Groups))]
		c1, c2, c3 := anyClick(), anyClick(), anyClick()
		es := []checkEntry{
			{kind: "user", user: pick(grp.Attackers)},
			{kind: "user", user: c1.UserID},
			{kind: "item", item: pick(grp.Targets)},
			{kind: "item", item: c1.ItemID},
			{kind: "pair", user: pick(grp.Attackers), item: pick(grp.Targets)},
			{kind: "pair", user: pick(grp.Attackers), item: pick(grp.HotItems)},
			{kind: "pair", user: c2.UserID, item: c2.ItemID},
			{kind: "pair", user: c3.UserID, item: c3.ItemID},
		}
		body := []byte{'['}
		for k, e := range es {
			if k > 0 {
				body = append(body, ',')
			}
			switch e.kind {
			case "user":
				body = fmt.Appendf(body, `{"kind":"user","id":%d}`, e.user)
			case "item":
				body = fmt.Appendf(body, `{"kind":"item","id":%d}`, e.item)
			default:
				body = fmt.Appendf(body, `{"kind":"pair","user":%d,"item":%d}`, e.user, e.item)
			}
		}
		body = append(body, ']')
		pool[q] = query{body: body, entries: es}
	}
	return pool
}
