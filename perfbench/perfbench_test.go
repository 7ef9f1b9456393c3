package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestTailPercent(t *testing.T) {
	cases := []struct{ n, want int }{
		{99, 0},     // p90 leaves 9 beyond
		{100, 90},   // p90 leaves exactly 10 beyond
		{199, 90},   // p95 leaves 9 beyond
		{200, 95},   // p95 leaves 10
		{999, 95},   // p99 leaves 9
		{1000, 99},  // p99 leaves 10
		{22500, 99}, // serve-mixed at 15 s
		{120, 90},   // track-autos at 15 s
		{3000, 99},  // router-mixed at 15 s
		{1 << 20, 99},
	}
	for _, c := range cases {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = %d, want %d", c.n, got, c.want)
		}
		if p := tailPercent(c.n); p > 0 && c.n-rank(p, c.n) < 10 {
			t.Errorf("n=%d: p%d has %d samples beyond it", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(100-i) * time.Millisecond // 100..1 ms, unsorted
	}
	if got := percentileMs(lat, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentileMs(lat, 90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	group := []span{
		{op: 7, id: 0, parent: -1, start: 0, end: 100},
		{op: 7, id: 1, parent: 0, start: 10, end: 40},
		{op: 7, id: 2, parent: 0, start: 30, end: 60},  // overlaps span 1
		{op: 7, id: 3, parent: 0, start: 90, end: 120}, // runs past its parent
		{op: 7, id: 4, parent: 1, start: 15, end: 20},
	}
	self := selfTimes(group)
	want := map[int32]int64{0: 100 - 60, 1: 30 - 5, 2: 30, 3: 30, 4: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := unionLen(nil, 0, 10); got != 0 {
		t.Errorf("empty union = %d", got)
	}
}

func TestGroupByOp(t *testing.T) {
	spans := []span{
		{op: 2, id: 0}, {op: 1, id: 1}, {op: 2, id: 2}, {op: 1, id: 3}, {op: 3, id: 4},
	}
	groups := groupByOp(spans)
	var got [][]int32
	for _, g := range groups {
		var ids []int32
		for _, s := range g {
			if s.op != g[0].op {
				t.Fatalf("group mixes ops %d and %d", g[0].op, s.op)
			}
			ids = append(ids, s.id)
		}
		got = append(got, ids)
	}
	want := [][]int32{{1, 3}, {0, 2}, {4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %v, want %v", got, want)
	}
}

func TestSummarizeRouterFanOut(t *testing.T) {
	// One request: the router span holds two overlapping shard spans.
	spans := []span{
		{op: 0, id: 0, parent: -1, layer: layerOp, start: 0, end: 100},
		{op: 0, id: 1, parent: 0, layer: layerRouter, start: 5, end: 95},
		{op: 0, id: 2, parent: 1, layer: layerShard, start: 20, end: 50},
		{op: 0, id: 3, parent: 1, layer: layerShard, start: 30, end: 70},
	}
	lt := summarize(spans)
	if lt.ops != 1 || lt.busy[layerShard] != 50 || lt.skew != 10 {
		t.Errorf("ops=%d busy=%d skew=%d, want 1, 50, 10", lt.ops, lt.busy[layerShard], lt.skew)
	}
	if lt.self[layerRouter] != 90-50 || lt.self[layerOp] != 10 {
		t.Errorf("router self=%d op self=%d, want 40, 10", lt.self[layerRouter], lt.self[layerOp])
	}
}

func TestDiffCounts(t *testing.T) {
	var a, b counter
	a.add("queries", []int{500, 499})
	a.add("rel_err", 0.1)
	a.add("hits", uint64(3))
	b.add("queries", []int{500, 499})
	b.add("rel_err", 0.1)
	b.add("hits", uint64(3))
	if d := diffCounts(a, b); len(d) != 0 {
		t.Fatalf("identical counts differ: %v", d)
	}
	c := append(counter(nil), b...)
	c[1] = count{Name: "rel_err", Value: "0.2"}
	c = append(c[:2], count{Name: "misses", Value: "1"})
	d := diffCounts(a, c)
	if len(d) != 3 {
		t.Errorf("want rel_err, missing hits and extra misses reported, got %v", d)
	}
}

func TestSpreadCoversTotal(t *testing.T) {
	for _, total := range []int{0, 171, 300} {
		sum := 0
		for i := 0; i < 100; i++ {
			sum += spread(total, 100, i)
		}
		if sum != total {
			t.Errorf("spread(%d) sums to %d", total, sum)
		}
	}
}

func TestPoolSimTracksLiveSet(t *testing.T) {
	_, sim, initial := newSim(&spec{poolN: 500, m: 8, initial: 400}, 3)
	live := make(map[uint64]bool)
	for _, tp := range initial {
		live[tp.ID] = true
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		for _, id := range sim.delete(rng.Intn(30)) {
			if !live[id] {
				t.Fatalf("deleted ID %d is not live", id)
			}
			delete(live, id)
		}
		for _, tp := range sim.insert(40) { // drains the pool into spares
			if live[tp.ID] {
				t.Fatalf("inserted ID %d is already live", tp.ID)
			}
			live[tp.ID] = true
		}
		if sim.size() != len(live) {
			t.Fatalf("size %d, live %d", sim.size(), len(live))
		}
	}
}

// tinySpecs shrink each workload so the whole pipeline — inputs, set-up,
// timed ops, reference checks, tracing — runs in a test.
func tinySpecs() []*spec {
	return []*spec{
		{name: "track-autos", poolN: 3000, m: 10, initial: 2500, k: 50, g: 60,
			inserts: 30, deleteFrac: 0.01, warm: 1, perSec: 1, minOps: 4},
		{name: "track-constant", poolN: 3000, m: 10, initial: 2500, k: 50, g: 20,
			constant: true, inserts: 30, deletes: 17, warm: 1, perSec: 1, minOps: 4},
		{name: "serve-mixed", poolN: 3000, m: 10, initial: 2500, k: 25,
			inserts: 30, deleteFrac: 0.01, universe: 64, zipf: 1.1, churnEvery: 50,
			warm: 20, perSec: 1, minOps: 160},
		{name: "router-mixed", router: true, poolN: 3000, m: 10, initial: 2500, k: 25,
			inserts: 30, deleteFrac: 0.01, universe: 64, zipf: 1.1, churnEvery: 50,
			warm: 20, perSec: 1, minOps: 160},
	}
}

func TestTinyWorkloadsPassChecksAndRepeatExactly(t *testing.T) {
	for _, s := range tinySpecs() {
		t.Run(s.name, func(t *testing.T) {
			pass := inputsFor(s, 5, s.timedOps(1), t.TempDir())
			plain, traced, err := twoPasses(pass, 2, false, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*passResult{plain, traced} {
				if !ok(r) || len(r.lat) != s.minOps {
					t.Fatalf("failed=%d broken=%v ops=%d notes=%v", r.failed, r.broken, len(r.lat), r.notes)
				}
			}
			if d := diffCounts(plain.counts, traced.counts); len(d) != 0 {
				t.Errorf("traced pass did different work: %v", d)
			}
			if len(plain.setupS) != 2 || traced.layer == nil {
				t.Errorf("setups=%d layer metrics=%v", len(plain.setupS), traced.layer)
			}
			for name := range traced.layer {
				if _, ok := perLayerUnits[name]; !ok {
					t.Errorf("layer metric %q has no unit", name)
				}
			}
		})
	}
}
