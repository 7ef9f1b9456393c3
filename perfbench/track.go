package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/tracking"
)

// trackSystem is one tracking service over an unsharded store, advanced
// one dynagg-track round (PreRound churn, estimator Step, checkpoint
// file) per op.
type trackSystem struct {
	s     *spec
	in    *trackInputs
	store *hiddendb.Store
	iface *hiddendb.Iface
	svc   *tracking.Service
	ckpt  string

	next    int     // plan index of the next round
	slotQ   int     // constant model: next unapplied query slot of the round
	carry   []batch // constant model: slots a short round left unapplied
	hookErr error   // constant model: first mutation failure of the round

	tr                    *tracer
	roundSlot, searchSlot slot
	drills                int
}

func buildTrack(s *spec, in *trackInputs, seed int64, ckpt string, tr *tracer) (*trackSystem, error) {
	if err := os.Remove(ckpt); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	st := hiddendb.NewStore(in.sch)
	if err := st.ApplyBatch(in.initial, nil); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	sys := &trackSystem{s: s, in: in, store: st, iface: hiddendb.NewIface(st, s.k, nil), ckpt: ckpt, tr: tr}
	cfg := tracking.Config{
		Algorithm:        "RS",
		Aggregates:       []*agg.Aggregate{agg.CountAll()},
		Budget:           s.g,
		Seed:             seed,
		Parallelism:      1,
		MaxDrills:        2000,
		CheckpointPath:   ckpt,
		AnswerCacheStats: sys.iface.CacheStats,
	}
	if !s.constant {
		cfg.PreRound = sys.preRound
	}
	svc, err := tracking.New(in.sch, sys.session, cfg)
	if err != nil {
		return nil, err
	}
	sys.svc = svc
	for i := 0; i < s.warm; i++ {
		if _, rec := sys.step(); rec.err != nil {
			return nil, fmt.Errorf("warm-up round %d: %w", i+1, rec.err)
		}
	}
	return sys, nil
}

func (t *trackSystem) preRound(int) error {
	b := t.in.rounds[t.next].batch
	if t.tr != nil {
		id := t.tr.child(t.roundSlot.Load(), layerMutate)
		defer t.tr.end(id)
	}
	return t.store.ApplyBatch(b.ins, b.dels)
}

func (t *trackSystem) session(g int) tracking.Session {
	sess := t.iface.NewSession(g)
	if t.s.constant {
		sess.SetPreSearchHook(t.hook)
	}
	if t.tr != nil {
		return &tracedSession{inner: sess, t: t.tr, round: &t.roundSlot, own: &t.searchSlot}
	}
	return sess
}

// hook applies query q's share of the round's constant-update mutations
// with single-tuple Insert and Delete, after any share a short previous
// round left unapplied.
func (t *trackSystem) hook(q int) {
	plan := &t.in.rounds[t.next]
	if t.tr != nil {
		id := t.tr.child(t.searchSlot.Load(), layerMutate)
		defer t.tr.end(id)
	}
	for _, b := range t.carry {
		t.apply(b)
	}
	t.carry = nil
	if q < len(plan.perQuery) {
		t.apply(plan.perQuery[q])
		t.slotQ = q + 1
	}
}

func (t *trackSystem) apply(b batch) {
	for _, tp := range b.ins {
		if err := t.store.Insert(tp); err != nil && t.hookErr == nil {
			t.hookErr = err
		}
	}
	for _, id := range b.dels {
		if _, err := t.store.Delete(id); err != nil && t.hookErr == nil {
			t.hookErr = err
		}
	}
}

// roundRec is what one round did, read after the round's timing stops.
type roundRec struct {
	err       error
	queries   int
	drills    int
	ckptBytes int
	estimate  float64
	relErr    float64
}

// step runs one round and returns its latency.
func (t *trackSystem) step() (time.Duration, roundRec) {
	plan := &t.in.rounds[t.next]
	t.slotQ, t.hookErr = 0, nil
	var id int32
	if t.tr != nil {
		id = t.tr.begin(int32(t.next), -1, layerOp)
		t.roundSlot.Store(id)
	}
	start := time.Now()
	err := t.svc.StepOnce()
	d := time.Since(start)
	if t.tr != nil {
		t.tr.end(id)
	}
	var rec roundRec
	if t.s.constant {
		// RS may end a round a few queries short of G; the slots it did
		// not reach run before the next round's first query.
		t.carry = append(t.carry, plan.perQuery[t.slotQ:]...)
	}
	v := t.svc.CurrentView()
	rec.queries = v.UsedLast
	rec.drills = v.Drills - t.drills
	t.drills = v.Drills
	if fi, serr := os.Stat(t.ckpt); serr == nil {
		rec.ckptBytes = int(fi.Size())
	}
	switch {
	case err != nil:
		rec.err = err
	case t.hookErr != nil:
		rec.err = t.hookErr
	case rec.queries > t.s.g || rec.queries == 0:
		// RS stops a few queries short of G when no further drill down
		// fits; the exact counts pin how many each round spends.
		rec.err = fmt.Errorf("round spent %d queries, budget %d", rec.queries, t.s.g)
	case len(v.Estimates) == 0 || !v.Estimates[0].OK:
		rec.err = errors.New("no estimate")
	default:
		rec.estimate = v.Estimates[0].Value
		size := float64(t.store.Size())
		rec.relErr = math.Abs(rec.estimate-size) / size
	}
	t.next++
	return d, rec
}

func (t *trackSystem) close() {
	_ = os.Remove(t.ckpt)
}

// trackPass builds the system `setups` times (set-up includes the
// warm-up rounds), then times the remaining rounds on the last one.
func trackPass(s *spec, in *trackInputs, seed int64, dir string, setups int, traced bool) (*passResult, error) {
	res := &passResult{}
	var sys *trackSystem
	var tr *tracer
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		if traced {
			tr = newTracer(len(in.rounds) * (2 + s.g*2))
		}
		runtime.GC()
		start := time.Now()
		var err error
		sys, err = buildTrack(s, in, seed, filepath.Join(dir, fmt.Sprintf("%s-%d.ckpt", s.name, i)), tr)
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}
	defer sys.close()
	if tr != nil {
		tr.spans = tr.spans[:0]
	}

	cs0 := sys.iface.CacheStats()
	var recs []roundRec
	res.lat = make([]time.Duration, 0, len(in.rounds)-s.warm)
	res.beginTimed()
	for sys.next < len(in.rounds) {
		d, rec := sys.step()
		res.lat = append(res.lat, d)
		recs = append(recs, rec)
	}
	res.endTimed()
	cs1 := sys.iface.CacheStats()

	var queries, drills, ckpt []int
	var relSum float64
	est := fnv.New64a()
	for i, rec := range recs {
		if rec.err != nil {
			res.failed++
			res.note("round %d failed: %v", s.warm+i+1, rec.err)
		}
		queries = append(queries, rec.queries)
		drills = append(drills, rec.drills)
		ckpt = append(ckpt, rec.ckptBytes)
		relSum += rec.relErr
		fmt.Fprintf(est, "%x,", math.Float64bits(rec.estimate))
	}
	n := float64(len(recs))
	relErr := relSum / n
	res.counts.add("rounds", len(recs))
	res.counts.add("queries_per_round", queries)
	res.counts.add("drills_per_round", drills)
	res.counts.add("checkpoint_bytes_per_round", ckpt)
	res.counts.add("cache_hits", cs1.Hits)
	res.counts.add("cache_misses", cs1.Misses)
	res.counts.add("estimates_digest", est.Sum64())
	res.counts.add("rel_err", relErr)

	if tr == nil {
		return res, nil
	}
	lt := summarize(tr.spans)
	res.trace = tr
	ops := float64(lt.ops)
	nq := float64(lt.count[layerSearch])
	totalDrills, totalCkpt := 0, 0
	for i := range recs {
		totalDrills += drills[i]
		totalCkpt += ckpt[i]
	}
	hits, misses := float64(cs1.Hits-cs0.Hits), float64(cs1.Misses-cs0.Misses)
	res.layer = map[string]float64{
		"hiddendb.search_ms":          ms(lt.self[layerSearch]) / ops,
		"hiddendb.queries":            nq / ops,
		"hiddendb.us_per_query":       us(lt.self[layerSearch]) / nq,
		"hiddendb.cache_hit_ratio":    hits / (hits + misses),
		"hiddendb.mutate_ms":          ms(lt.total[layerMutate]) / ops,
		"estimator.self_ms":           ms(lt.self[layerOp]) / ops,
		"estimator.drills":            float64(totalDrills) / n,
		"estimator.queries_per_drill": nq / float64(totalDrills),
		"estimator.rel_err":           relErr,
		"tracking.checkpoint_kb":      float64(totalCkpt) / n / 1024,
	}
	round := float64(lt.total[layerOp])
	res.shares = map[string]float64{
		"hiddendb.search": float64(lt.self[layerSearch]) / round,
		"hiddendb.mutate": float64(lt.total[layerMutate]) / round,
		"estimator.self":  float64(lt.self[layerOp]) / round,
	}
	return res, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }
