package estimator

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/querytree"
	"github.com/dynagg/dynagg/internal/schema"
)

// Persistence lets a long-lived tracker survive process restarts: a daily
// tracker following a real site cannot keep its drill-down pool in RAM
// for weeks. Save serialises the full estimator state (drill-down pool
// with histories, per-round estimates, RS's group history and variance
// models); Load reconstructs it against the same schema and aggregate
// set. Aggregates contain functions and are therefore NOT serialised —
// the caller re-supplies them, and Load verifies the count matches.
//
// The random source is not serialisable; the restored estimator continues
// with the Config.Rand provided at Load. Estimates are unaffected
// (signatures already drawn remain uniform), only future random draws
// differ from an uninterrupted run.

// snapContribution mirrors contribution for gob.
type snapContribution struct {
	Round  int
	Depth  int
	Prob   float64
	Pairs  []agg.Pair
	Tuples []*schema.Tuple
}

// snapDrill mirrors drill for gob.
type snapDrill struct {
	Sig  []uint16
	Cur  snapContribution
	Prev snapContribution
	Hist []snapContribution
}

// snapEstimate mirrors Estimate plus its validity flag.
type snapEstimate struct {
	Est Estimate
	OK  bool
}

// snapVarModel mirrors varModel.
type snapVarModel struct {
	HT, Diff         float64
	HaveHT, HaveDiff bool
}

// snapshot is the on-wire estimator state.
type snapshot struct {
	Version int
	Algo    string
	NumAggs int
	Round   int
	Used    int
	Drills  int
	Wasted  int

	Estimates []snapEstimate
	Deltas    []snapEstimate

	Pool []snapDrill

	// RESTART extras.
	PrevEst   []snapEstimate
	LastRound []snapDrill

	// RS extras.
	Hist          [][]snapEstimate
	VarModels     []snapVarModel
	OptimizeDelta bool
}

const snapshotVersion = 1

func contribToSnap(c contribution) snapContribution {
	return snapContribution{Round: c.round, Depth: c.depth, Prob: c.prob, Pairs: c.pairs, Tuples: c.tuples}
}

func snapToContrib(s snapContribution) contribution {
	return contribution{round: s.Round, depth: s.Depth, prob: s.Prob, pairs: s.Pairs, tuples: s.Tuples}
}

func drillToSnap(d *drill) snapDrill {
	out := snapDrill{Sig: d.sig, Cur: contribToSnap(d.cur), Prev: contribToSnap(d.prev)}
	for _, h := range d.hist {
		out.Hist = append(out.Hist, contribToSnap(h))
	}
	return out
}

func snapToDrill(s snapDrill) *drill {
	d := &drill{sig: querytree.Signature(s.Sig), cur: snapToContrib(s.Cur), prev: snapToContrib(s.Prev)}
	for _, h := range s.Hist {
		d.hist = append(d.hist, snapToContrib(h))
	}
	return d
}

func estimatesToSnap(ests []Estimate, ok []bool) []snapEstimate {
	out := make([]snapEstimate, len(ests))
	for i := range ests {
		out[i] = snapEstimate{Est: ests[i], OK: ok[i]}
	}
	return out
}

func snapToEstimates(s []snapEstimate) ([]Estimate, []bool) {
	ests := make([]Estimate, len(s))
	ok := make([]bool, len(s))
	for i := range s {
		ests[i] = s[i].Est
		ok[i] = s[i].OK
	}
	return ests, ok
}

// Save serialises the estimator's state. Supported concrete types:
// *Restart, *Reissue, *RS.
func Save(e Estimator, w io.Writer) error {
	snap := snapshot{Version: snapshotVersion, Algo: e.Name()}
	switch t := e.(type) {
	case *Restart:
		snap.fillBase(t.base)
		snap.PrevEst = estimatesToSnap(t.prevEst, t.prevOK)
		for _, d := range t.lastRound {
			snap.LastRound = append(snap.LastRound, drillToSnap(d))
		}
	case *Reissue:
		snap.fillBase(t.base)
		for _, d := range t.pool {
			snap.Pool = append(snap.Pool, drillToSnap(d))
		}
	case *RS:
		snap.fillBase(t.base)
		for _, d := range t.pool {
			snap.Pool = append(snap.Pool, drillToSnap(d))
		}
		for _, h := range t.hist {
			snap.Hist = append(snap.Hist, estimatesToSnap(h.est, h.ok))
		}
		for _, vm := range t.vm {
			snap.VarModels = append(snap.VarModels, snapVarModel{
				HT: vm.ht, Diff: vm.diff, HaveHT: vm.haveHT, HaveDiff: vm.haveDiff,
			})
		}
		snap.OptimizeDelta = t.cfg.DeltaTarget
	default:
		return fmt.Errorf("estimator: cannot save %T", e)
	}
	return gob.NewEncoder(w).Encode(&snap)
}

func (s *snapshot) fillBase(b *base) {
	s.NumAggs = len(b.aggs)
	s.Round = b.round
	s.Used = b.used
	s.Drills = b.drills
	s.Wasted = b.wasted
	s.Estimates = estimatesToSnap(b.estimates, b.estOK)
	s.Deltas = estimatesToSnap(b.deltas, b.deltaOK)
}

func (s *snapshot) restoreBase(b *base) {
	b.round = s.Round
	b.used = s.Used
	b.drills = s.Drills
	b.wasted = s.Wasted
	b.estimates, b.estOK = snapToEstimates(s.Estimates)
	b.deltas, b.deltaOK = snapToEstimates(s.Deltas)
}

// fit reports the first field of the decoded checkpoint that does not fit
// e, the fresh estimator it is about to restore into: a drill outside e's
// tree, or a per-aggregate slice of another length, would panic in the
// next Step or Estimate, and a signature value outside its level's domain
// would silently bias every estimate.
func (s *snapshot) fit(e Estimator) error {
	type sized struct {
		field string
		ests  []snapEstimate
	}
	lens := []sized{{"Estimates", s.Estimates}, {"Deltas", s.Deltas}}
	var t *querytree.Tree
	switch v := e.(type) {
	case *Restart:
		t = v.tree
		lens = append(lens, sized{"PrevEst", s.PrevEst})
	case *Reissue:
		t = v.tree
	case *RS:
		t = v.tree
		if len(s.Hist) == 0 {
			return errors.New("Hist has no round-0 entry")
		}
		for i := 1; i < len(s.Hist); i++ {
			lens = append(lens, sized{fmt.Sprintf("Hist[%d]", i), s.Hist[i]})
		}
	}
	for _, l := range lens {
		if len(l.ests) != s.NumAggs {
			return fmt.Errorf("%s has %d entries, want %d", l.field, len(l.ests), s.NumAggs)
		}
	}
	for _, set := range []struct {
		field  string
		drills []snapDrill
	}{{"Pool", s.Pool}, {"LastRound", s.LastRound}} {
		for i := range set.drills {
			if err := set.drills[i].fit(t, s.Round, s.NumAggs); err != nil {
				return fmt.Errorf("%s[%d].%w", set.field, i, err)
			}
		}
	}
	return nil
}

// fit checks one drill against tree t: a signature of one in-domain value
// per level, and a current contribution made at some round 1..round.
func (d *snapDrill) fit(t *querytree.Tree, round, numAggs int) error {
	if len(d.Sig) != t.Depth() {
		return fmt.Errorf("Sig has %d levels, tree has %d", len(d.Sig), t.Depth())
	}
	for lvl, v := range d.Sig {
		if dom := t.Schema().DomainSize(t.LevelAttr(lvl)); int(v) >= dom {
			return fmt.Errorf("Sig[%d] is %d, outside the domain [0,%d)", lvl, v, dom)
		}
	}
	if d.Cur.Round < 1 {
		return fmt.Errorf("Cur.Round is %d, want at least 1", d.Cur.Round)
	}
	if err := d.Cur.fit(t, round, numAggs); err != nil {
		return fmt.Errorf("Cur.%w", err)
	}
	if err := d.Prev.fit(t, round, numAggs); err != nil {
		return fmt.Errorf("Prev.%w", err)
	}
	for i := range d.Hist {
		if err := d.Hist[i].fit(t, round, numAggs); err != nil {
			return fmt.Errorf("Hist[%d].%w", i, err)
		}
	}
	return nil
}

// fit checks one contribution against tree t. Its retained tuples, read
// by ad hoc aggregates, must each hold the schema's M values. Round 0
// means none; any other round must name a node of t with the probability
// contributionOf gives it — bit for bit — and one pair per aggregate.
func (c *snapContribution) fit(t *querytree.Tree, round, numAggs int) error {
	for i, tu := range c.Tuples {
		if tu == nil || len(tu.Vals) != t.Schema().M() {
			return fmt.Errorf("Tuples[%d] does not hold the schema's %d values", i, t.Schema().M())
		}
	}
	switch {
	case c.Round < 0 || c.Round > round:
		return fmt.Errorf("Round is %d, outside [0,%d]", c.Round, round)
	case c.Round == 0:
		return nil
	case c.Depth < 0 || c.Depth > t.Depth():
		return fmt.Errorf("Depth is %d, outside [0,%d]", c.Depth, t.Depth())
	case c.Prob != t.P(c.Depth):
		return fmt.Errorf("Prob is %g, want p(depth %d) = %g", c.Prob, c.Depth, t.P(c.Depth))
	case len(c.Pairs) != numAggs:
		return fmt.Errorf("Pairs has %d entries, want %d", len(c.Pairs), numAggs)
	}
	return nil
}

// Load reconstructs an estimator saved by Save. The schema, aggregate
// list (same order and count as at save time) and config are re-supplied
// by the caller because they contain functions; the snapshot's algorithm
// and RS delta target override the config. A snapshot that names no
// algorithm, or an unknown one, is refused, and so is one that does not
// fit the estimator's query tree or aggregate count (snapshot.fit).
func Load(r io.Reader, sch *schema.Schema, aggs []*agg.Aggregate, cfg Config) (Estimator, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("estimator: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("estimator: snapshot version %d not supported", snap.Version)
	}
	if snap.NumAggs != len(aggs) {
		return nil, fmt.Errorf("estimator: snapshot tracked %d aggregates, caller supplied %d",
			snap.NumAggs, len(aggs))
	}
	if snap.Algo == "" {
		return nil, errors.New("estimator: snapshot names no algorithm")
	}
	cfg.DeltaTarget = snap.OptimizeDelta
	e, err := New(snap.Algo, sch, aggs, cfg)
	if err != nil {
		return nil, err
	}
	if err := snap.fit(e); err != nil {
		return nil, fmt.Errorf("estimator: checkpoint does not fit: %w", err)
	}
	switch t := e.(type) {
	case *Restart:
		snap.restoreBase(t.base)
		t.prevEst, t.prevOK = snapToEstimates(snap.PrevEst)
		for _, sd := range snap.LastRound {
			t.lastRound = append(t.lastRound, snapToDrill(sd))
		}
	case *Reissue:
		snap.restoreBase(t.base)
		for _, sd := range snap.Pool {
			t.pool = append(t.pool, snapToDrill(sd))
		}
	case *RS:
		snap.restoreBase(t.base)
		for _, sd := range snap.Pool {
			t.pool = append(t.pool, snapToDrill(sd))
		}
		t.hist = t.hist[:0]
		for _, h := range snap.Hist {
			ests, ok := snapToEstimates(h)
			t.hist = append(t.hist, histEntry{est: ests, ok: ok})
		}
		for i, vm := range snap.VarModels {
			if i < len(t.vm) {
				t.vm[i] = varModel{ht: vm.HT, diff: vm.Diff, haveHT: vm.HaveHT, haveDiff: vm.HaveDiff}
			}
		}
	}
	return e, nil
}
