package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/synth"
)

// spec is everything that defines one workload apart from the seed. The
// generator configuration is written out field by field rather than taken
// from synth.DefaultConfig, so a change to the generator's defaults cannot
// silently change a workload; the README lists the same values.
type spec struct {
	Name string `json:"name"`
	// Seed is the run seed (--seed). It drives the event stream's day
	// assignment and order (Stream.Seed) and the query mix.
	Seed int64 `json:"seed"`
	// Gen is the dataset generator configuration; Gen.Seed is set from
	// --gen-seed, which fixes the marketplace across runs by default.
	Gen synth.Config `json:"generator"`
	// Stream unrolls the dataset into a day-stamped event stream (replays
	// only).
	Stream synth.EventStreamConfig `json:"event_stream"`
	// SweepsPerDay cuts each day's events into this many equal windows,
	// one sweep after each (replays only).
	SweepsPerDay int `json:"sweeps_per_day,omitempty"`
	// THot and TClick are the detection thresholds (cmd/stream defaults).
	THot   uint64 `json:"t_hot"`
	TClick uint32 `json:"t_click"`
	// QueryRate is the open-loop /v1/check schedule in requests per second.
	QueryRate float64 `json:"query_rate_per_s"`
	// Queries fixes the number of open-loop serving requests per round
	// (batch-serve, split evenly over its Restarts slices); the replays
	// send queries for as long as the replay lasts.
	Queries int `json:"queries,omitempty"`
	// BurstQueries is the size of each closed-loop burst of /v1/check
	// requests, one per slice (batch-serve): throughput_per_s.
	BurstQueries int `json:"burst_queries,omitempty"`
	// Restarts is how many times a batch-serve round restarts from the
	// table (graph build, cold detection, publish): recover_s is the
	// median.
	Restarts int `json:"restarts,omitempty"`
	// Resweeps is how many warm-cache resweeps a batch-serve round makes,
	// spaced ResweepEvery apart.
	Resweeps     int           `json:"resweeps,omitempty"`
	ResweepEvery time.Duration `json:"resweep_every_ns,omitempty"`
	// SetupRepeats is how many times set-up is repeated at the start of
	// each round (batch-serve's restarts add a graph build each); setup_s
	// is the median.
	SetupRepeats int `json:"setup_repeats"`
	// Recoveries is how many times a replay's WAL directory is reopened;
	// recover_s is the median.
	Recoveries int `json:"recoveries,omitempty"`
	// RoundSeconds sets how many whole rounds a run makes:
	// --seconds / RoundSeconds, at least one. The count depends on
	// --seconds alone, not on how fast the program is, so every run of a
	// workload at the same --seconds attempts the same operations.
	RoundSeconds int `json:"round_seconds"`
	// SnapshotEvery mirrors cmd/stream -snapshot-every: a snapshot after
	// the first sweep that ends this many WAL records after the last one.
	SnapshotEvery int `json:"snapshot_every,omitempty"`
}

// Precision and recall floors every checked detection must meet against
// the generator's labels (users and items together, as metrics.Evaluate
// counts them). The README explains why they hold.
const (
	precisionFloor = 0.95
	recallFloor    = 0.30
	// f1Tolerance bounds |F1(final sweep) − F1(batch detection)|, the
	// bound TestIncrementalMatchesFullDetection uses.
	f1Tolerance = 0.05
)

// Detection parameters shared by every workload (cmd/stream and cmd/serve
// defaults): K1 = K2 = 10, α = 1.
const (
	paramK1    = 10
	paramK2    = 10
	paramAlpha = 1.0
)

// generator returns the full generator configuration for a marketplace of
// the given size. The values are those of synth.DefaultConfig when this
// benchmark was written; only the population size differs between scales.
func generator(users, items int) synth.Config {
	return synth.Config{
		NumUsers:          users,
		NumItems:          items,
		UserActivityAlpha: 1.9,
		UserActivityMin:   4.0,
		ItemZipfS:         1.15,
		ItemZipfV:         3.0,
		Confusers: synth.ConfuserConfig{
			FanFraction:       0.03,
			FanItemsMax:       3,
			FanClicksMin:      8,
			FanClicksMax:      18,
			GroupBuys:         5,
			GroupBuyUsersMin:  30,
			GroupBuyUsersMax:  60,
			GroupBuyClicksMin: 8,
			GroupBuyClicksMax: 16,
		},
		Attack: synth.AttackConfig{
			Groups:              8,
			AttackersMin:        8,
			AttackersMax:        55,
			TargetsMin:          12,
			TargetsMax:          18,
			HotMin:              2,
			HotMax:              3,
			TargetClicksMin:     8,
			TargetClicksMax:     24,
			HotClicksMax:        3,
			CamouflageItemsMin:  2,
			CamouflageItemsMax:  5,
			CamouflageClicksMax: 2,
			Participation:       0.95,
			OrganicClickers:     6,
			AgencyLoyalty:       0.88,
			HotPoolSize:         0,
			CampaignGroups:      1,
			CampaignAttackers:   110,
		},
	}
}

// The paper's table has 20M users and 4M items; 1:300 and 1:1000 of it.
var (
	scale300  = generator(66667, 13333)
	scale1000 = generator(20000, 4000)
)

// thirtyDays is the event stream of `synthgen -events -days 30`.
var thirtyDays = synth.EventStreamConfig{Days: 30, AttackStartDay: 3}

var specs = []spec{
	{
		Name:          "replay-daily",
		Gen:           scale300,
		Stream:        thirtyDays,
		SweepsPerDay:  1,
		THot:          1000,
		TClick:        12,
		QueryRate:     100,
		SetupRepeats:  7,
		Recoveries:    15,
		RoundSeconds:  20,
		SnapshotEvery: 5000,
	},
	{
		Name:          "replay-intraday",
		Gen:           scale1000,
		Stream:        thirtyDays,
		SweepsPerDay:  24,
		THot:          1000,
		TClick:        12,
		QueryRate:     100,
		SetupRepeats:  7,
		Recoveries:    15,
		RoundSeconds:  20,
		SnapshotEvery: 5000,
	},
	{
		Name:         "batch-serve",
		Gen:          scale300,
		THot:         1000,
		TClick:       12,
		QueryRate:    200,
		Queries:      1800,
		BurstQueries: 10000,
		Restarts:     3,
		Resweeps:     45,
		ResweepEvery: 200 * time.Millisecond,
		SetupRepeats: 5,
		RoundSeconds: 20,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// withSeeds returns the spec with the run and generator seeds set.
func (s spec) withSeeds(seed, genSeed int64) spec {
	s.Seed = seed
	s.Stream.Seed = seed
	s.Gen.Seed = genSeed
	return s
}

func (s spec) replay() bool { return s.SweepsPerDay > 0 }

// rounds is the number of whole rounds a run of the given length makes.
func (s spec) rounds(seconds int) int { return max(1, seconds/s.RoundSeconds) }

// configJSON is the spec as printed by every run.
func (s spec) configJSON() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return string(b)
}

// digestEvents hashes an event stream (or, with day 0, a click table's
// rows) into a short hex digest printed by every run: a generator change
// shows up as a different digest instead of a silently different workload.
func digestEvents(evs []synth.Event) string {
	h := sha256.New()
	var b [16]byte
	for _, e := range evs {
		binary.LittleEndian.PutUint32(b[0:], uint32(e.Day))
		binary.LittleEndian.PutUint32(b[4:], e.UserID)
		binary.LittleEndian.PutUint32(b[8:], e.ItemID)
		binary.LittleEndian.PutUint32(b[12:], e.Clicks)
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
