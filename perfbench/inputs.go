package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/workload"
)

// spec fixes one workload: its data, its churn and how much work a run
// does. Work is a fixed op count, never a fixed duration.
type spec struct {
	name string

	poolN, m, initial, k int

	// Tracking workloads.
	g          int     // per-round query budget G
	constant   bool    // mutations spread over the round's queries (Fig 4)
	inserts    int     // tuples inserted per round or churn batch
	deleteFrac float64 // round-update deletes: this fraction of |D|
	deletes    int     // constant-update deletes per round

	// Serving workloads.
	router     bool
	universe   int     // distinct queries
	zipf       float64 // Zipf s over the universe
	churnEvery int     // timed requests between churn batches

	warm   int     // untimed warm-up ops, part of set-up
	perSec float64 // timed ops per requested second of measurement
	minOps int     // fewest timed ops: enough samples beyond the tail
}

var specs = []*spec{
	{
		name:  "track-autos",
		poolN: workload.AutosSize, m: 38, initial: 170000, k: 1000,
		g: 500, inserts: 300, deleteFrac: 0.001,
		warm: 3, perSec: 8, minOps: 100,
	},
	{
		name:  "track-constant",
		poolN: workload.AutosSize, m: 38, initial: 170000, k: 1000,
		g: 100, constant: true, inserts: 300, deletes: 171,
		warm: 2, perSec: 6.7, minOps: 100,
	},
	{
		name:  "serve-mixed",
		poolN: 40000, m: 38, initial: 36000, k: 250,
		inserts: 300, deleteFrac: 0.001,
		universe: 4096, zipf: 1.1, churnEvery: 1000,
		warm: 1000, perSec: 1500, minOps: 1000,
	},
	{
		name:  "router-mixed",
		poolN: 40000, m: 38, initial: 36000, k: 250, router: true,
		inserts: 300, deleteFrac: 0.001,
		universe: 4096, zipf: 1.1, churnEvery: 1000,
		warm: 200, perSec: 200, minOps: 1000,
	},
}

func specNamed(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// timedOps is the fixed op count of a run measuring about `seconds`.
func (s *spec) timedOps(seconds int) int {
	n := int(s.perSec*float64(seconds) + 0.5)
	if n < s.minOps {
		n = s.minOps
	}
	return n
}

// batch is one set of mutations, handed to the store as given.
type batch struct {
	ins  []*schema.Tuple
	dels []uint64
}

// poolSim decides, outside any timing, which pool tuples are in the
// database: inserts draw tuples not currently in it, deletes pick live
// IDs uniformly and return pool tuples to the free set. Tuple IDs are
// assigned here, so the program only ever receives finished inputs.
type poolSim struct {
	pool   []*schema.Tuple
	spare  func() []*schema.Tuple // overflow tuples once the pool runs dry
	free   []int
	live   []uint64
	pos    map[uint64]int
	origin map[uint64]int // pool index of each live ID
	nextID uint64
	rng    *rand.Rand
}

func newPoolSim(pool []*schema.Tuple, spare func() []*schema.Tuple, initial int, rng *rand.Rand) (*poolSim, []*schema.Tuple) {
	p := &poolSim{
		pool:   pool,
		spare:  spare,
		pos:    make(map[uint64]int, initial),
		origin: make(map[uint64]int, initial),
		nextID: 1,
		rng:    rng,
	}
	perm := rng.Perm(len(pool))
	p.free = append(p.free, perm[initial:]...)
	out := make([]*schema.Tuple, initial)
	for i, idx := range perm[:initial] {
		out[i] = p.admit(pool[idx], idx)
	}
	return p, out
}

// admit gives a pool tuple a fresh ID. The new tuple shares the pool
// tuple's value slices; the store never writes to them.
func (p *poolSim) admit(src *schema.Tuple, origin int) *schema.Tuple {
	t := &schema.Tuple{ID: p.nextID, Vals: src.Vals, Aux: src.Aux}
	p.nextID++
	p.pos[t.ID] = len(p.live)
	p.live = append(p.live, t.ID)
	p.origin[t.ID] = origin
	return t
}

func (p *poolSim) insert(n int) []*schema.Tuple {
	out := make([]*schema.Tuple, 0, n)
	for i := 0; i < n; i++ {
		if len(p.free) == 0 {
			for _, t := range p.spare() {
				p.pool = append(p.pool, t)
				p.free = append(p.free, len(p.pool)-1)
			}
		}
		j := p.rng.Intn(len(p.free))
		idx := p.free[j]
		p.free[j] = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		out = append(out, p.admit(p.pool[idx], idx))
	}
	return out
}

func (p *poolSim) delete(n int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 0; i < n && len(p.live) > 0; i++ {
		j := p.rng.Intn(len(p.live))
		id := p.live[j]
		last := p.live[len(p.live)-1]
		p.live[j] = last
		p.pos[last] = j
		p.live = p.live[:len(p.live)-1]
		delete(p.pos, id)
		p.free = append(p.free, p.origin[id])
		delete(p.origin, id)
		out = append(out, id)
	}
	return out
}

func (p *poolSim) size() int { return len(p.live) }

// roundUpdate is one round-update churn batch: 0.1%-style deletes of the
// current size, then pool inserts (Store.ApplyBatch applies deletes
// first).
func (p *poolSim) roundUpdate(inserts int, deleteFrac float64) batch {
	dels := p.delete(int(deleteFrac * float64(p.size())))
	return batch{ins: p.insert(inserts), dels: dels}
}

// dataSeed fixes the Autos-shaped pool and the query universe: like the
// paper's Yahoo! Autos data they are one database, the same for every
// run. --seed draws the initial subset, the churn, the request sample and
// the estimator's randomness, so runs with different seeds do the same
// kind of work.
const dataSeed = 1

// newSim loads `initial` tuples of the Autos-shaped pool, chosen by seed.
// Overflow tuples come from a second dataset of the same shape,
// generated only if a long run drains the pool.
func newSim(s *spec, seed int64) (*schema.Schema, *poolSim, []*schema.Tuple) {
	data := workload.AutosLikeN(dataSeed, s.poolN, s.m)
	spareSeed := int64(dataSeed)
	spare := func() []*schema.Tuple {
		spareSeed += 7919
		return workload.AutosLikeN(spareSeed, 4096, s.m).Pool
	}
	sim, initial := newPoolSim(data.Pool, spare, s.initial, rand.New(rand.NewSource(seed+1)))
	return data.Schema, sim, initial
}

// trackInputs are every input of a tracking run: the initial tuples and
// each round's mutations, warm-up rounds first.
type trackInputs struct {
	sch     *schema.Schema
	initial []*schema.Tuple
	rounds  []roundPlan
}

type roundPlan struct {
	batch    batch   // round-update model: applied by PreRound
	perQuery []batch // constant-update model: applied before query i
}

func genTrack(s *spec, seed int64, rounds int) *trackInputs {
	sch, sim, initial := newSim(s, seed)
	in := &trackInputs{sch: sch, initial: initial, rounds: make([]roundPlan, rounds)}
	for r := range in.rounds {
		plan := &in.rounds[r]
		if !s.constant {
			plan.batch = sim.roundUpdate(s.inserts, s.deleteFrac)
		} else {
			plan.perQuery = make([]batch, s.g)
			for q := range plan.perQuery {
				plan.perQuery[q] = batch{
					ins:  sim.insert(spread(s.inserts, s.g, q)),
					dels: sim.delete(spread(s.deletes, s.g, q)),
				}
			}
		}
	}
	return in
}

// spread is slot i's share when total items are spread evenly over n
// slots.
func spread(total, n, i int) int { return (i+1)*total/n - i*total/n }

// serveInputs are every input of a serving run: the initial tuples, the
// churn batches, the query universe and the request sequence (warm-up
// requests first).
type serveInputs struct {
	sch     *schema.Schema
	initial []*schema.Tuple
	batches []batch
	queries []hiddendb.Query
	paths   []string // GET path of each universe query
	seq     []int32  // universe index of each request
}

func genServe(s *spec, seed int64, timed int) *serveInputs {
	sch, sim, initial := newSim(s, seed)
	in := &serveInputs{sch: sch, initial: initial}
	for i := 1; i*s.churnEvery < timed; i++ {
		in.batches = append(in.batches, sim.roundUpdate(s.inserts, s.deleteFrac))
	}
	rng := rand.New(rand.NewSource(dataSeed + 2))
	in.queries = make([]hiddendb.Query, s.universe)
	in.paths = make([]string, s.universe)
	for i := range in.queries {
		in.queries[i], in.paths[i] = randomQuery(sch, rng)
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed+2)), s.zipf, 1, uint64(s.universe-1))
	in.seq = make([]int32, s.warm+timed)
	for i := range in.seq {
		in.seq[i] = int32(z.Uint64())
	}
	return in
}

// randomQuery draws a 1-2 predicate conjunction on distinct random
// attributes, the shape dynagg-loadgen sends.
func randomQuery(sch *schema.Schema, rng *rand.Rand) (hiddendb.Query, string) {
	np := 1 + rng.Intn(2)
	a0 := rng.Intn(sch.M())
	var preds []hiddendb.Pred
	var where []string
	for p := 0; p < np; p++ {
		attr := a0
		for p == 1 && attr == a0 {
			attr = rng.Intn(sch.M())
		}
		val := uint16(rng.Intn(sch.DomainSize(attr)))
		preds = append(preds, hiddendb.Pred{Attr: attr, Val: val})
		where = append(where, fmt.Sprintf("%d:%d", attr, val))
	}
	sort.Strings(where)
	return hiddendb.NewQuery(preds...), "/v1/search?where=" + strings.Join(where, "&where=")
}
