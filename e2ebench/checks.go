package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"repro/internal/detect"
)

// The checks in this file judge the program's outputs against data the
// benchmark computes itself: its own aggregate of the generated clicks and
// the generator's labels. None of them calls into the detector.

// group is a detected group in plain IDs.
type group struct {
	users []uint32
	items []uint32
}

func fromDetect(gs []detect.Group) []group {
	out := make([]group, len(gs))
	for i, g := range gs {
		out[i].users = make([]uint32, len(g.Users))
		for k, u := range g.Users {
			out[i].users[k] = uint32(u)
		}
		out[i].items = make([]uint32, len(g.Items))
		for k, v := range g.Items {
			out[i].items[k] = uint32(v)
		}
	}
	return out
}

// aggregate is the benchmark's own click table: per-edge and per-item
// click totals of every click added so far.
type aggregate struct {
	w         map[uint64]uint64
	itemTotal map[uint32]uint64
	clicks    uint64
}

func newAggregate() *aggregate {
	return &aggregate{w: map[uint64]uint64{}, itemTotal: map[uint32]uint64{}}
}

func (a *aggregate) add(u, v, clicks uint32) {
	a.w[uint64(u)<<32|uint64(v)] += uint64(clicks)
	a.itemTotal[v] += uint64(clicks)
	a.clicks += uint64(clicks)
}

// reset empties the aggregate and keeps its storage.
func (a *aggregate) reset() {
	clear(a.w)
	clear(a.itemTotal)
	a.clicks = 0
}

func (a *aggregate) weight(u, v uint32) uint64 { return a.w[uint64(u)<<32|uint64(v)] }

func (a *aggregate) edges() int { return len(a.w) }

// rules are the screening thresholds of §V-B.
type rules struct {
	tHot   uint64
	tClick uint32
	k1     int
	alpha  float64
}

func (r rules) minSupporters() int { return int(math.Ceil(r.alpha*float64(r.k1) - 1e-9)) }

// checkScreening verifies the screening rules of §V-B on every group:
// each flagged item has fewer than T_hot clicks in total and at least
// ⌈α·K1⌉ users of its own group who clicked it T_click times or more, and
// each flagged user clicked some non-hot item of its group T_click times
// or more.
func checkScreening(agg *aggregate, gs []group, r rules) error {
	need := r.minSupporters()
	for gi, g := range gs {
		for _, v := range g.items {
			if t := agg.itemTotal[v]; t >= r.tHot {
				return fmt.Errorf("group %d: item %d has %d clicks, not below T_hot=%d", gi+1, v, t, r.tHot)
			}
			n := 0
			for _, u := range g.users {
				if agg.weight(u, v) >= uint64(r.tClick) {
					n++
				}
			}
			if n < need {
				return fmt.Errorf("group %d: item %d has %d group users with ≥%d clicks, need %d", gi+1, v, n, r.tClick, need)
			}
		}
		for _, u := range g.users {
			ok := false
			for _, v := range g.items {
				if agg.itemTotal[v] < r.tHot && agg.weight(u, v) >= uint64(r.tClick) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("group %d: user %d has no edge of ≥%d clicks to a non-hot item of its group", gi+1, u, r.tClick)
			}
		}
	}
	return nil
}

// quality is precision, recall and F1 over flagged users and items
// together, against the generator's labels.
type quality struct {
	precision, recall, f1 float64
	flagged, hits         int
}

func evaluate(gs []group, truth labels) quality {
	users, items := map[uint32]bool{}, map[uint32]bool{}
	for _, g := range gs {
		for _, u := range g.users {
			users[u] = true
		}
		for _, v := range g.items {
			items[v] = true
		}
	}
	var q quality
	q.flagged = len(users) + len(items)
	for u := range users {
		if truth.users[u] {
			q.hits++
		}
	}
	for v := range items {
		if truth.items[v] {
			q.hits++
		}
	}
	if q.flagged > 0 {
		q.precision = float64(q.hits) / float64(q.flagged)
	}
	if n := truth.size(); n > 0 {
		q.recall = float64(q.hits) / float64(n)
	}
	if q.precision+q.recall > 0 {
		q.f1 = 2 * q.precision * q.recall / (q.precision + q.recall)
	}
	return q
}

func (q quality) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f", q.precision, q.recall, q.f1)
}

// checkQuality applies the precision and recall floors.
func checkQuality(gs []group, truth labels) (quality, error) {
	q := evaluate(gs, truth)
	if q.precision < precisionFloor || q.recall < recallFloor {
		return q, fmt.Errorf("%v below the floors P≥%.2f R≥%.2f", q, precisionFloor, recallFloor)
	}
	return q, nil
}

// checkNone verifies that a sweep before the attack start day flagged
// nobody.
func checkNone(gs []group, day int) error {
	if len(gs) > 0 {
		return fmt.Errorf("day %d precedes the attack but %d groups were flagged", day, len(gs))
	}
	return nil
}

// checkF1Close verifies that two detections of the same clicks score
// within f1Tolerance of each other.
func checkF1Close(sweep, batch quality) error {
	if d := math.Abs(sweep.f1 - batch.f1); d > f1Tolerance {
		return fmt.Errorf("final sweep F1 %.3f vs batch F1 %.3f differ by %.3f > %.2f", sweep.f1, batch.f1, d, f1Tolerance)
	}
	return nil
}

// canonical returns the groups as sorted strings for order-free
// comparison.
func canonical(gs []group) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		u := append([]uint32(nil), g.users...)
		v := append([]uint32(nil), g.items...)
		sort.Slice(u, func(a, b int) bool { return u[a] < u[b] })
		sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
		out[i] = fmt.Sprint(u, v)
	}
	sort.Strings(out)
	return out
}

// checkSameGroups verifies that got holds exactly the groups of want.
func checkSameGroups(got, want []group) error {
	a, b := canonical(got), canonical(want)
	if len(a) != len(b) {
		return fmt.Errorf("%d groups, want %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("group %d differs: %s, want %s", i+1, a[i], b[i])
		}
	}
	return nil
}

// checkRecoveredGraph verifies that a recovered detector's graph holds the
// benchmark's own aggregate: the same edge count and click total.
func checkRecoveredGraph(edges int, clicks uint64, agg *aggregate) error {
	if edges != agg.edges() || clicks != agg.clicks {
		return fmt.Errorf("recovered graph has %d edges and %d clicks, want %d and %d", edges, clicks, agg.edges(), agg.clicks)
	}
	return nil
}

// verdicts indexes one epoch's groups for answer checking.
type verdicts struct {
	users map[uint32]bool
	items map[uint32]bool
	// pairs holds user<<32|item for every user and item sharing a group.
	pairs map[uint64]bool
}

func indexGroups(gs []group) *verdicts {
	vs := &verdicts{users: map[uint32]bool{}, items: map[uint32]bool{}, pairs: map[uint64]bool{}}
	for _, g := range gs {
		for _, u := range g.users {
			vs.users[u] = true
			for _, v := range g.items {
				vs.pairs[uint64(u)<<32|uint64(v)] = true
			}
		}
		for _, v := range g.items {
			vs.items[v] = true
		}
	}
	return vs
}

// answerEntry is the part of a /v1/check answer entry the checks read.
type answerEntry struct {
	Suspicious *bool  `json:"suspicious"`
	InGroup    *bool  `json:"in_group"`
	Epoch      uint64 `json:"epoch"`
}

// checkAnswer verifies one /v1/check answer: status 200, one entry per
// question, all from one epoch, each agreeing with that epoch's groups.
// It returns the epoch the answer names.
func checkAnswer(q query, status int, body []byte, epochs func(uint64) (*verdicts, bool)) (uint64, error) {
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %.200s", status, body)
	}
	var ans []answerEntry
	if err := json.Unmarshal(body, &ans); err != nil {
		return 0, fmt.Errorf("decode answer: %w", err)
	}
	if len(ans) != len(q.entries) {
		return 0, fmt.Errorf("%d answer entries for %d questions", len(ans), len(q.entries))
	}
	epoch := ans[0].Epoch
	vs, ok := epochs(epoch)
	if !ok {
		return epoch, fmt.Errorf("answer names epoch %d, which was never published", epoch)
	}
	for k, e := range q.entries {
		a := ans[k]
		if a.Epoch != epoch {
			return epoch, fmt.Errorf("entry %d from epoch %d, entry 1 from epoch %d", k+1, a.Epoch, epoch)
		}
		var got *bool
		var want bool
		switch e.kind {
		case "user":
			got, want = a.Suspicious, vs.users[e.user]
		case "item":
			got, want = a.Suspicious, vs.items[e.item]
		default:
			got, want = a.InGroup, vs.pairs[uint64(e.user)<<32|uint64(e.item)]
		}
		if got == nil || *got != want {
			return epoch, fmt.Errorf("entry %d (%s %d/%d) answered %v at epoch %d, its groups say %v", k+1, e.kind, e.user, e.item, fmtBool(got), epoch, want)
		}
	}
	return epoch, nil
}

func fmtBool(b *bool) string {
	if b == nil {
		return "nothing"
	}
	return fmt.Sprint(*b)
}

// checkMonotone verifies that the epochs one client saw, in the order it
// received them, never decrease.
func checkMonotone(seen []uint64) error {
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			return fmt.Errorf("epoch went back from %d to %d", seen[i-1], seen[i])
		}
	}
	return nil
}
