package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/synth"
)

// A small world: group 1 is users 1–10 hammering items 100–109 with 12
// clicks each; item 200 is hot (it has 5000 clicks from user 50); user 11
// clicked item 100 only 3 times.
func fixture() (*aggregate, []group, rules, labels) {
	agg := newAggregate()
	var g group
	for u := uint32(1); u <= 10; u++ {
		g.users = append(g.users, u)
		for v := uint32(100); v < 110; v++ {
			agg.add(u, v, 12)
		}
		agg.add(u, 200, 1)
	}
	for v := uint32(100); v < 110; v++ {
		g.items = append(g.items, v)
	}
	agg.add(50, 200, 5000)
	agg.add(11, 100, 3)
	truth := labels{users: map[uint32]bool{}, items: map[uint32]bool{}}
	for _, u := range g.users {
		truth.users[u] = true
	}
	for _, v := range g.items {
		truth.items[v] = true
	}
	return agg, []group{g}, rules{tHot: 1000, tClick: 12, k1: 10, alpha: 1}, truth
}

func clone(gs []group) []group {
	out := make([]group, len(gs))
	for i, g := range gs {
		out[i] = group{users: append([]uint32(nil), g.users...), items: append([]uint32(nil), g.items...)}
	}
	return out
}

func TestCheckScreeningAcceptsTrueGroup(t *testing.T) {
	agg, gs, r, _ := fixture()
	if err := checkScreening(agg, gs, r); err != nil {
		t.Fatal(err)
	}
}

func TestCheckScreeningRejectsDoctoredGroups(t *testing.T) {
	agg, gs, r, _ := fixture()
	cases := map[string]func(gs []group){
		"hot item added":                  func(gs []group) { gs[0].items = append(gs[0].items, 200) },
		"user without a T_click edge":     func(gs []group) { gs[0].users = append(gs[0].users, 11) },
		"item short of ⌈α·K1⌉ supporters": func(gs []group) { gs[0].users = gs[0].users[:9] },
		"user of another group":           func(gs []group) { gs[0].users = append(gs[0].users, 50) },
	}
	for name, doctor := range cases {
		bad := clone(gs)
		doctor(bad)
		if err := checkScreening(agg, bad, r); err == nil {
			t.Errorf("%s: no failure reported", name)
		}
	}
}

func TestCheckQualityFloors(t *testing.T) {
	_, gs, _, truth := fixture()
	if _, err := checkQuality(gs, truth); err != nil {
		t.Fatalf("true groups: %v", err)
	}
	if _, err := checkQuality(nil, truth); err == nil {
		t.Error("no groups: recall floor not enforced")
	}
	noisy := clone(gs)
	for u := uint32(1000); u < 1100; u++ {
		noisy[0].users = append(noisy[0].users, u)
	}
	if _, err := checkQuality(noisy, truth); err == nil {
		t.Error("100 innocent users flagged: precision floor not enforced")
	}
}

func TestCheckNoneBeforeAttack(t *testing.T) {
	_, gs, _, _ := fixture()
	if err := checkNone(nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := checkNone(gs, 1); err == nil {
		t.Error("a group flagged before the attack passed")
	}
}

func TestCheckF1Close(t *testing.T) {
	if err := checkF1Close(quality{f1: 0.70}, quality{f1: 0.74}); err != nil {
		t.Fatal(err)
	}
	if err := checkF1Close(quality{f1: 0.70}, quality{f1: 0.80}); err == nil {
		t.Error("F1 0.70 vs 0.80 passed")
	}
}

func TestCheckSameGroups(t *testing.T) {
	_, gs, _, _ := fixture()
	two := append(clone(gs), group{users: []uint32{7}, items: []uint32{8}})
	reordered := []group{two[1], two[0]}
	if err := checkSameGroups(reordered, two); err != nil {
		t.Fatalf("order alone must not matter: %v", err)
	}
	if err := checkSameGroups(two[:1], two); err == nil {
		t.Error("a recovered sweep with one group dropped passed")
	}
	shrunk := clone(two)
	shrunk[0].items = shrunk[0].items[1:]
	if err := checkSameGroups(shrunk, two); err == nil {
		t.Error("a cached resweep with one item dropped passed")
	}
}

func TestCheckRecoveredGraph(t *testing.T) {
	agg, _, _, _ := fixture()
	if err := checkRecoveredGraph(agg.edges(), agg.clicks, agg); err != nil {
		t.Fatal(err)
	}
	if err := checkRecoveredGraph(agg.edges()-1, agg.clicks, agg); err == nil {
		t.Error("a lost edge passed")
	}
	if err := checkRecoveredGraph(agg.edges(), agg.clicks+1, agg); err == nil {
		t.Error("a wrong click total passed")
	}
}

// answer renders a /v1/check answer for the fixture query below.
func answer(epoch uint64, user, item, pair bool) []byte {
	return []byte(fmt.Sprintf(`[{"kind":"user","id":1,"suspicious":%v,"epoch":%d},`+
		`{"kind":"item","id":100,"suspicious":%v,"epoch":%d},`+
		`{"user":1,"item":100,"in_group":%v,"epoch":%d}]`, user, epoch, item, epoch, pair, epoch))
}

func TestCheckAnswer(t *testing.T) {
	_, gs, _, _ := fixture()
	q := query{entries: []checkEntry{{kind: "user", user: 1}, {kind: "item", item: 100}, {kind: "pair", user: 1, item: 100}}}
	el := newEpochLog()
	el.put(1, nil)
	el.put(2, gs)
	if _, err := checkAnswer(q, http.StatusOK, answer(2, true, true, true), el.lookup); err != nil {
		t.Fatalf("correct answer: %v", err)
	}
	if _, err := checkAnswer(q, http.StatusOK, answer(1, false, false, false), el.lookup); err != nil {
		t.Fatalf("correct answer at the empty epoch: %v", err)
	}
	bad := map[string]struct {
		status int
		body   []byte
	}{
		"user flipped":         {http.StatusOK, answer(2, false, true, true)},
		"item flipped":         {http.StatusOK, answer(2, true, false, true)},
		"pair flipped":         {http.StatusOK, answer(2, true, true, false)},
		"stale verdict":        {http.StatusOK, answer(1, true, true, true)},
		"unpublished epoch":    {http.StatusOK, answer(3, true, true, true)},
		"shed with 429":        {http.StatusTooManyRequests, []byte(`{"error":"overloaded"}`)},
		"not served":           {http.StatusServiceUnavailable, []byte(`{"error":"no index yet"}`)},
		"entry missing":        {http.StatusOK, []byte(`[{"kind":"user","id":1,"suspicious":true,"epoch":2}]`)},
		"mixed epochs":         {http.StatusOK, []byte(strings.Replace(string(answer(2, true, true, true)), `"in_group":true,"epoch":2`, `"in_group":true,"epoch":1`, 1))},
		"field missing":        {http.StatusOK, []byte(strings.Replace(string(answer(2, true, true, true)), `"in_group":true,`, ``, 1))},
		"body is not JSON":     {http.StatusOK, []byte(`oops`)},
		"verdicts of no epoch": {http.StatusOK, answer(0, false, false, false)},
	}
	for name, c := range bad {
		if _, err := checkAnswer(q, c.status, c.body, el.lookup); err == nil {
			t.Errorf("%s: no failure reported", name)
		}
	}
}

func TestCheckMonotone(t *testing.T) {
	if err := checkMonotone([]uint64{1, 1, 2, 5}); err != nil {
		t.Fatal(err)
	}
	if err := checkMonotone([]uint64{1, 3, 2}); err == nil {
		t.Error("an epoch going back passed")
	}
}

// days returns a stream with counts[d] events on day d+1.
func days(counts ...int) []synth.Event {
	var evs []synth.Event
	for d, n := range counts {
		for i := 0; i < n; i++ {
			evs = append(evs, synth.Event{Day: d + 1, Clicks: 1})
		}
	}
	return evs
}

func TestCutWindows(t *testing.T) {
	in := cutWindows(days(3, 5, 0, 2), 2)
	want := []window{{1, 1}, {1, 3}, {2, 5}, {2, 8}, {4, 9}, {4, 10}}
	if fmt.Sprint(in) != fmt.Sprint(want) {
		t.Fatalf("windows %v, want %v", in, want)
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, append(append([]metricDef(nil), tails...), perLayer...))
}
