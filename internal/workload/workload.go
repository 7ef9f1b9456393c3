// Package workload generates the datasets and update schedules of the
// paper's experimental evaluation (§6.1).
//
// The paper's primary offline dataset is a Yahoo! Autos snapshot
// (188,917 distinct tuples, 38 categorical attributes with domain sizes
// between 2 and 38). The snapshot is not redistributable, so AutosLike
// synthesises a table with exactly the published shape: same cardinality,
// same attribute count, domain sizes spanning 2–38, and skewed value
// frequencies. Since the estimators interact with the data only through
// drill downs, their behaviour is governed by n, m, the |Ui| and the
// value skew — all matched here.
//
// Update schedules implement the paper's round-update model: the default
// Yahoo! Autos schedule starts with 170,000 tuples and, per round, inserts
// 300 random pool tuples not currently in the database and deletes 0.1% of
// the existing ones.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
)

// Dataset is a generated universe of distinct tuples plus a generator for
// fresh tuples beyond the pool (schedules that insert more tuples than the
// pool holds synthesise new distinct ones on demand).
//
// Ownership: a Dataset is read-only once generated and safe to share
// across goroutines: each environment records the keys of the fresh
// tuples it draws in its own pool, so any number of environments built
// from one Dataset evolve independently. The Schema it references is
// immutable.
type Dataset struct {
	// Schema of every tuple.
	Schema *schema.Schema
	// Pool holds the pre-generated distinct tuples. Pool tuples carry no
	// IDs; Env assigns store IDs at insertion time.
	Pool []*schema.Tuple

	keys    map[string]bool // keys of the Pool tuples
	genVals func(rng *rand.Rand) []uint16
	genAux  func(rng *rand.Rand, vals []uint16) []float64
}

// autosDomainSizes is the 38-attribute domain-size profile (range 2–38,
// matching the published statistics of the Yahoo! Autos snapshot).
var autosDomainSizes = []int{
	38, 30, 25, 22, 20, 18, 16, 15, 14, 13,
	12, 11, 10, 10, 9, 9, 8, 8, 7, 7,
	6, 6, 5, 5, 5, 4, 4, 4, 3, 3,
	3, 3, 2, 2, 2, 2, 2, 2,
}

// AutosSize is the tuple count of the Yahoo! Autos snapshot.
const AutosSize = 188917

// AutosLike generates the full Autos-shaped dataset (188,917 tuples,
// 38 attributes). Generation is deterministic in the seed.
func AutosLike(seed int64) *Dataset {
	return AutosLikeN(seed, AutosSize, len(autosDomainSizes))
}

// AutosLikeN generates an Autos-shaped dataset with n tuples over the
// first m of the 38 Autos attributes (m ≤ 38). Smaller configurations are
// used by unit tests and by the m-sweep (Fig 11) / small-database figures.
func AutosLikeN(seed int64, n, m int) *Dataset {
	if m < 1 || m > len(autosDomainSizes) {
		panic(fmt.Sprintf("workload: m=%d out of range [1,%d]", m, len(autosDomainSizes)))
	}
	attrs := make([]schema.Attr, m)
	for i := 0; i < m; i++ {
		dom := make([]string, autosDomainSizes[i])
		for v := range dom {
			dom[v] = fmt.Sprintf("a%d_v%d", i, v)
		}
		attrs[i] = schema.Attr{Name: fmt.Sprintf("A%d", i+1), Domain: dom}
	}
	sch := schema.New(attrs)

	// Skewed per-attribute value distribution: p(v) ∝ 1/√(v+1), a mild
	// Zipf-like profile producing the broad-then-narrow drill-down
	// behaviour of real categorical web data. (A full Zipf exponent of 1
	// across 38 attributes compounds into astronomically heavy
	// Horvitz–Thompson tails — deep all-common-value paths with tiny p(q)
	// and thousands of tuples — which real relational snapshots do not
	// exhibit.)
	cum := make([][]float64, m)
	for i := 0; i < m; i++ {
		d := autosDomainSizes[i]
		c := make([]float64, d)
		total := 0.0
		for v := 0; v < d; v++ {
			total += 1 / math.Sqrt(float64(v+1))
			c[v] = total
		}
		for v := range c {
			c[v] /= total
		}
		cum[i] = c
	}
	genVals := func(rng *rand.Rand) []uint16 {
		vals := make([]uint16, m)
		for i := 0; i < m; i++ {
			x := rng.Float64()
			c := cum[i]
			lo := 0
			for lo < len(c)-1 && c[lo] < x {
				lo++
			}
			vals[i] = uint16(lo)
		}
		return vals
	}
	// Price-like auxiliary payload: a base driven by the first attribute
	// (vehicle "make") with log-normal-ish noise. Non-searchable; used by
	// SUM/AVG aggregates.
	genAux := func(rng *rand.Rand, vals []uint16) []float64 {
		base := 5000 + 900*float64(vals[0])
		price := base * (0.5 + rng.Float64())
		return []float64{price}
	}
	return generate(seed, n, sch, genVals, genAux)
}

// Scalable generates a uniform dataset of n tuples over m attributes with
// the given domain size — the |D1| sweep of Fig 12 (m = 50). Tuples carry
// no auxiliary payload.
func Scalable(seed int64, n, m, domainSize int) *Dataset {
	sch := schema.Uniform(m, domainSize)
	genVals := func(rng *rand.Rand) []uint16 {
		vals := make([]uint16, m)
		for i := range vals {
			vals[i] = uint16(rng.Intn(domainSize))
		}
		return vals
	}
	return generate(seed, n, sch, genVals, nil)
}

// Boolean generates an i.i.d. uniform boolean dataset (the §3.2.1
// "total change" example shape).
func Boolean(seed int64, n, m int) *Dataset {
	return Scalable(seed, n, m, 2)
}

// Custom generates a dataset over an arbitrary schema with caller-supplied
// value and aux generators (used by the live-site simulators). genVals
// must return value vectors drawn from the schema's domains; genAux may be
// nil.
func Custom(seed int64, n int, sch *schema.Schema,
	genVals func(rng *rand.Rand) []uint16,
	genAux func(rng *rand.Rand, vals []uint16) []float64) *Dataset {
	return generate(seed, n, sch, genVals, genAux)
}

// generate fills a dataset with n distinct tuples.
func generate(seed int64, n int, sch *schema.Schema, genVals func(*rand.Rand) []uint16,
	genAux func(*rand.Rand, []uint16) []float64) *Dataset {

	capacity := 1.0
	for i := 0; i < sch.M(); i++ {
		capacity *= float64(sch.DomainSize(i))
		if capacity > 1e15 {
			break
		}
	}
	if float64(n) > capacity/2 {
		panic(fmt.Sprintf("workload: %d tuples exceed half the key space (%.0f)", n, capacity))
	}

	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		Schema:  sch,
		keys:    make(map[string]bool, n),
		genVals: genVals,
		genAux:  genAux,
	}
	d.Pool = make([]*schema.Tuple, 0, n)
	for len(d.Pool) < n {
		d.Pool = append(d.Pool, d.fresh(rng, d.keys))
	}
	return d
}

// fresh generates one new tuple whose key is in neither the pool nor own,
// and records its key in own.
func (d *Dataset) fresh(rng *rand.Rand, own map[string]bool) *schema.Tuple {
	for attempt := 0; ; attempt++ {
		vals := d.genVals(rng)
		if attempt > 64 {
			// Heavily collided region of a skewed distribution: perturb the
			// widest attribute uniformly to escape.
			widest := 0
			for i := 1; i < d.Schema.M(); i++ {
				if d.Schema.DomainSize(i) > d.Schema.DomainSize(widest) {
					widest = i
				}
			}
			vals[widest] = uint16(rng.Intn(d.Schema.DomainSize(widest)))
		}
		t := &schema.Tuple{Vals: vals}
		k := t.Key()
		if d.keys[k] || own[k] {
			continue
		}
		own[k] = true
		if d.genAux != nil {
			t.Aux = d.genAux(rng, vals)
		}
		return t
	}
}

// store is what a pool needs of the store it fills; Store and
// ShardedStore both have it.
type store interface {
	NextID() uint64
	ApplyBatch(inserts []*schema.Tuple, deleteIDs []uint64) error
}

// pool is the bookkeeping Env and ShardedEnv share: which dataset tuples
// are outside the database and so free to insert, which dataset tuple
// each stored one came from, and the keys of the fresh tuples drawn
// beyond the dataset. Every draw goes through Rng in a fixed order, so
// two pools loaded with the same (data, initial, seed) hand out the same
// tuples under the same IDs, whatever store they fill.
type pool struct {
	Data *Dataset
	Rng  *rand.Rand

	nextID   func() uint64   // the store's ID allocator
	free     []int           // pool indexes currently outside the database
	originOf map[uint64]int  // store ID → pool index, for pool tuples only
	fresh    map[string]bool // keys of the fresh tuples drawn so far
}

// load seeds the pool and fills st with `initial` uniformly chosen
// dataset tuples.
func (p *pool) load(data *Dataset, initial int, seed int64, st store) error {
	if initial > len(data.Pool) {
		return fmt.Errorf("workload: initial size %d exceeds pool %d", initial, len(data.Pool))
	}
	*p = pool{
		Data:     data,
		Rng:      rand.New(rand.NewSource(seed)),
		nextID:   st.NextID,
		originOf: make(map[uint64]int),
		fresh:    make(map[string]bool),
	}
	perm := p.Rng.Perm(len(data.Pool))
	p.free = perm[initial:]
	batch := make([]*schema.Tuple, initial)
	for i, poolIdx := range perm[:initial] {
		batch[i] = p.take(poolIdx)
	}
	return st.ApplyBatch(batch, nil)
}

// take clones pool tuple poolIdx under a new store ID.
func (p *pool) take(poolIdx int) *schema.Tuple {
	t := p.Data.Pool[poolIdx].Clone(p.nextID())
	p.originOf[t.ID] = poolIdx
	return t
}

// freshTuple generates a tuple unlike every pool tuple and every fresh
// tuple drawn before, under a new store ID.
func (p *pool) freshTuple() *schema.Tuple {
	return p.Data.fresh(p.Rng, p.fresh).Clone(p.nextID())
}

// draw picks n uniformly chosen pool tuples that are not currently in the
// database; when the pool runs dry it falls back to fresh tuples so long
// schedules never stall.
func (p *pool) draw(n int) []*schema.Tuple {
	batch := make([]*schema.Tuple, n)
	for i := range batch {
		if len(p.free) == 0 {
			batch[i] = p.freshTuple()
			continue
		}
		j := p.Rng.Intn(len(p.free))
		poolIdx := p.free[j]
		p.free[j] = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		batch[i] = p.take(poolIdx)
	}
	return batch
}

// victims shuffles ids, releases the first n (all of them if fewer) and
// returns them for deletion.
func (p *pool) victims(ids []uint64, n int) []uint64 {
	if n > len(ids) {
		n = len(ids)
	}
	p.Rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:n] {
		p.release(id)
	}
	return ids[:n]
}

// release records that the tuple with this store ID leaves the database:
// a pool tuple becomes free to insert again.
func (p *pool) release(id uint64) {
	if poolIdx, ok := p.originOf[id]; ok {
		p.free = append(p.free, poolIdx)
		delete(p.originOf, id)
	}
}

// Env binds a dataset to a live store and tracks which pool tuples are
// currently inside the database, so schedules can insert "random tuples
// not currently in the database" and return deleted tuples to the pool —
// the paper's default Yahoo! Autos insertion/deletion model. The
// embedded pool holds Data, the dataset, and Rng, the seeded source of
// every draw.
//
// Ownership: single-goroutine, like the Store it drives; one Env belongs
// to one trial's worker goroutine.
type Env struct {
	pool
	Store *hiddendb.Store
}

// NewEnv creates a store preloaded with `initial` uniformly chosen pool
// tuples. All randomness flows from the seed, so two environments built
// with the same arguments evolve identically (the harness relies on this
// to give every estimator an identical database history).
func NewEnv(data *Dataset, initial int, seed int64) (*Env, error) {
	e := &Env{Store: hiddendb.NewStore(data.Schema)}
	if err := e.load(data, initial, seed, e.Store); err != nil {
		return nil, err
	}
	return e, nil
}

// InsertFromPool inserts n uniformly chosen pool tuples that are not
// currently in the database; when the pool runs dry it falls back to
// freshly generated tuples so long schedules never stall. Small batches
// (constant-update simulations insert one tuple at a time) take the
// incremental path to avoid the full merge pass.
func (e *Env) InsertFromPool(n int) error {
	batch := e.draw(n)
	if len(batch) <= 4 {
		for _, t := range batch {
			if err := e.Store.Insert(t); err != nil {
				return err
			}
		}
		return nil
	}
	return e.Store.ApplyBatch(batch, nil)
}

// InsertFresh inserts n brand-new distinct tuples (used by the big-change
// schedules that outgrow the pool).
func (e *Env) InsertFresh(n int) error {
	batch := make([]*schema.Tuple, n)
	for i := range batch {
		batch[i] = e.freshTuple()
	}
	return e.Store.ApplyBatch(batch, nil)
}

// DeleteRandom deletes n uniformly chosen tuples (or every tuple if fewer
// remain). Pool-origin tuples return to the available pool. Single
// victims (constant-update simulations) take the incremental path.
func (e *Env) DeleteRandom(n int) error {
	if n <= 2 && e.Store.Size() > 0 {
		for i := 0; i < n && e.Store.Size() > 0; i++ {
			id := e.Store.At(e.Rng.Intn(e.Store.Size())).ID
			e.release(id)
			if _, err := e.Store.Delete(id); err != nil {
				return err
			}
		}
		return nil
	}
	return e.Store.ApplyBatch(nil, e.victims(e.Store.IDs(), n))
}

// DeleteFraction deletes ⌊f·|D|⌋ uniformly chosen tuples.
func (e *Env) DeleteFraction(f float64) error {
	return e.DeleteRandom(int(f * float64(e.Store.Size())))
}

// RegenerateAll replaces the entire database with an equal number of
// random tuples (the §3.2.1 "total change" extreme).
func (e *Env) RegenerateAll() error {
	n := e.Store.Size()
	if err := e.DeleteRandom(n); err != nil {
		return err
	}
	return e.InsertFromPool(n)
}

// MutateAux replaces the aux payload of a random fraction of tuples —
// in-place updates such as price changes (live-experiment simulators).
func (e *Env) MutateAux(frac float64, mutate func(aux []float64, rng *rand.Rand)) error {
	return e.MutateAuxWhere(frac, nil, mutate)
}

// MutateAuxWhere is MutateAux restricted to tuples matching pred
// (nil pred matches everything): frac of the matching tuples get their aux
// payload rewritten. Tuple identity (ID, searchable values) is preserved.
func (e *Env) MutateAuxWhere(frac float64, pred func(*schema.Tuple) bool,
	mutate func(aux []float64, rng *rand.Rand)) error {

	ids := e.matching(pred)
	n := int(frac * float64(len(ids)))
	e.Rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	ids = ids[:n]
	repl := make([]*schema.Tuple, n)
	for i, id := range ids {
		c := e.Store.Get(id).Clone(id)
		if c.Aux == nil {
			c.Aux = []float64{0}
		}
		mutate(c.Aux, e.Rng)
		repl[i] = c
	}
	return e.Store.ApplyBatch(repl, ids)
}

// DeleteWhere deletes frac of the tuples matching pred, returning
// pool-origin victims to the pool.
func (e *Env) DeleteWhere(frac float64, pred func(*schema.Tuple) bool) error {
	ids := e.matching(pred)
	return e.Store.ApplyBatch(nil, e.victims(ids, int(frac*float64(len(ids)))))
}

// matching returns the IDs of the tuples matching pred (nil pred matches
// everything) in canonical order.
func (e *Env) matching(pred func(*schema.Tuple) bool) []uint64 {
	var ids []uint64
	e.Store.ForEach(func(t *schema.Tuple) {
		if pred == nil || pred(t) {
			ids = append(ids, t.ID)
		}
	})
	return ids
}

// Schedule mutates the environment at the start of a round (round-update
// model). Rounds are numbered from 1; round 1 is the initial state, so
// schedules are applied from round 2 onward by the harness.
type Schedule func(round int, env *Env) error

// PoolChurn returns the paper's default-style schedule: per round, insert
// insertN pool tuples and delete a deleteFrac fraction (applied before
// insertion, matching "delete 0.1% of the existing tuples").
func PoolChurn(insertN int, deleteFrac float64) Schedule {
	return func(_ int, env *Env) error {
		if err := env.DeleteFraction(deleteFrac); err != nil {
			return err
		}
		return env.InsertFromPool(insertN)
	}
}

// FreshChurn inserts insertN brand-new tuples and deletes deleteFrac of
// the existing ones per round (the big-change schedules, Figs 6–7, 17).
func FreshChurn(insertN int, deleteFrac float64) Schedule {
	return func(_ int, env *Env) error {
		if err := env.DeleteFraction(deleteFrac); err != nil {
			return err
		}
		return env.InsertFresh(insertN)
	}
}

// NetChange inserts n tuples per round when n > 0 or deletes |n| when
// n < 0 (the Fig 10 sweep from −3000 to +3000 per 100 rounds).
func NetChange(n int) Schedule {
	return func(_ int, env *Env) error {
		if n >= 0 {
			return env.InsertFromPool(n)
		}
		return env.DeleteRandom(-n)
	}
}

// Compose applies schedules in order.
func Compose(ss ...Schedule) Schedule {
	return func(round int, env *Env) error {
		for _, s := range ss {
			if err := s(round, env); err != nil {
				return err
			}
		}
		return nil
	}
}
