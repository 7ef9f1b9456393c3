package fleet

import (
	"fmt"
	"regexp"
	"strings"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
)

// TaskSpec declares one tracked-aggregate task. It is fully
// JSON-expressible so the same shape serves the manifest file, the
// control-plane POST body and the fleet's persisted state.
type TaskSpec struct {
	// ID names the task; [A-Za-z0-9._-]+, unique in the fleet. It keys
	// the checkpoint file and every deterministic scheduling tie-break.
	ID string `json:"id"`
	// Target names a local target registered in Config.Targets. Empty
	// with exactly one configured target selects that target; mutually
	// exclusive with Remote.
	Target string `json:"target,omitempty"`
	// Remote is a dynagg-serve base URL; the task's sessions come from
	// the fleet's shared client pool.
	Remote string `json:"remote,omitempty"`
	// APIKey is presented to the remote for server-side budget
	// accounting. Tasks sharing Remote AND APIKey share one client.
	APIKey string `json:"api_key,omitempty"`
	// Algorithm picks the estimator: RESTART, REISSUE or RS (default).
	Algorithm string `json:"algorithm,omitempty"`
	// Aggregates declares the tracked aggregates (default: COUNT(*)).
	Aggregates []AggregateSpec `json:"aggregates,omitempty"`
	// Weight is the task's share of the tick budget: 1 (the default) to
	// MaxWeight.
	Weight int `json:"weight,omitempty"`
	// MaxBudget caps the task's per-round grant (0 = no cap); budget the
	// cap rejects is redistributed to the other tasks.
	MaxBudget int `json:"max_budget,omitempty"`
	// Seed drives the task's estimator randomness.
	Seed int64 `json:"seed,omitempty"`
	// Parallelism bounds the estimator's intra-round drill-down fan-out.
	Parallelism int `json:"parallelism,omitempty"`
	// Pilot overrides RS's bootstrap parameter ϖ (0 = default).
	Pilot int `json:"pilot,omitempty"`
	// MaxDrills bounds the drill-down pool (0 = no bound).
	MaxDrills int `json:"max_drills,omitempty"`
	// DeltaTarget makes RS optimise the trans-round delta.
	DeltaTarget bool `json:"delta_target,omitempty"`
	// Paused tasks are skipped by the scheduler; their budget share
	// flows to the runnable tasks.
	Paused bool `json:"paused,omitempty"`
}

var idPattern = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// MaxWeight bounds TaskSpec.Weight. allocate multiplies a tick budget by
// a weight and sums weights in int; under this bound and MaxTickBudget
// neither can overflow.
const MaxWeight = 1_000_000

// MaxTickBudget bounds Config.TickBudget, which New holds to
// [1, MaxTickBudget].
const MaxTickBudget = 1<<31 - 1

// validate normalises defaults and rejects malformed specs.
func (s *TaskSpec) validate() error {
	if !idPattern.MatchString(s.ID) {
		return fmt.Errorf("fleet: task id %q must match %s", s.ID, idPattern)
	}
	if s.Target != "" && s.Remote != "" {
		return fmt.Errorf("fleet: task %s sets both target and remote", s.ID)
	}
	if s.Weight == 0 {
		s.Weight = 1
	}
	if s.Weight < 1 || s.Weight > MaxWeight {
		return fmt.Errorf("fleet: task %s weight %d outside [1, %d]", s.ID, s.Weight, MaxWeight)
	}
	if s.MaxBudget < 0 {
		// A negative cap would starve the task forever (never "active"
		// in the allocator): reject rather than guess.
		return fmt.Errorf("fleet: task %s max_budget %d < 0", s.ID, s.MaxBudget)
	}
	switch s.Algorithm {
	case "", "RS", "REISSUE", "RESTART":
	default:
		return fmt.Errorf("fleet: task %s: unknown algorithm %q", s.ID, s.Algorithm)
	}
	if _, err := s.buildAggregates(); err != nil {
		return err
	}
	return nil
}

// buildAggregates materialises the declared aggregates (COUNT(*) when
// none are declared).
func (s *TaskSpec) buildAggregates() ([]*agg.Aggregate, error) {
	if len(s.Aggregates) == 0 {
		return []*agg.Aggregate{agg.CountAll()}, nil
	}
	out := make([]*agg.Aggregate, len(s.Aggregates))
	for i, as := range s.Aggregates {
		a, err := as.build()
		if err != nil {
			return nil, fmt.Errorf("fleet: task %s aggregate %d: %w", s.ID, i, err)
		}
		out[i] = a
	}
	return out, nil
}

// PredSpec is one equality predicate of a declarative selection.
type PredSpec struct {
	Attr int    `json:"attr"`
	Val  uint16 `json:"val"`
}

// AggregateSpec is the JSON-expressible subset of agg.Aggregate the
// control plane accepts: COUNT(*), SUM/AVG over an auxiliary payload
// field, optionally under a conjunctive selection condition. (Arbitrary
// per-tuple functions contain code and stay a programmatic-API feature.)
type AggregateSpec struct {
	// Kind is COUNT (default), SUM or AVG.
	Kind string `json:"kind,omitempty"`
	// Name labels the aggregate in reports (default: synthesised).
	Name string `json:"name,omitempty"`
	// AuxField indexes the auxiliary payload f(t) aggregates (SUM/AVG).
	AuxField int `json:"aux_field,omitempty"`
	// Where is the conjunctive selection condition (empty = all tuples).
	Where []PredSpec `json:"where,omitempty"`
}

func (a AggregateSpec) build() (*agg.Aggregate, error) {
	seen := make(map[int]bool, len(a.Where))
	preds := make([]hiddendb.Pred, len(a.Where))
	for i, p := range a.Where {
		if p.Attr < 0 {
			return nil, fmt.Errorf("negative attribute %d", p.Attr)
		}
		if seen[p.Attr] {
			return nil, fmt.Errorf("duplicate predicate on attribute %d", p.Attr)
		}
		seen[p.Attr] = true
		preds[i] = hiddendb.Pred{Attr: p.Attr, Val: p.Val}
	}
	kind := strings.ToUpper(a.Kind)
	name := a.Name
	if name == "" {
		name = a.describe(kind)
	}
	switch kind {
	case "", "COUNT":
		if len(preds) == 0 {
			c := agg.CountAll()
			if a.Name != "" {
				c.Name = a.Name
			}
			return c, nil
		}
		return agg.CountWhere(name, hiddendb.NewQuery(preds...)), nil
	case "SUM":
		if len(preds) == 0 {
			return agg.SumOf(name, agg.AuxField(a.AuxField)), nil
		}
		return agg.SumWhere(name, agg.AuxField(a.AuxField), hiddendb.NewQuery(preds...)), nil
	case "AVG":
		if len(preds) == 0 {
			return agg.AvgOf(name, agg.AuxField(a.AuxField)), nil
		}
		return agg.AvgWhere(name, agg.AuxField(a.AuxField), hiddendb.NewQuery(preds...)), nil
	default:
		return nil, fmt.Errorf("unknown aggregate kind %q", a.Kind)
	}
}

// describe synthesises a report label from the spec.
func (a AggregateSpec) describe(kind string) string {
	var b strings.Builder
	switch kind {
	case "", "COUNT":
		b.WriteString("COUNT(*)")
	default:
		fmt.Fprintf(&b, "%s(aux%d)", kind, a.AuxField)
	}
	for i, p := range a.Where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "a%d=%d", p.Attr, p.Val)
	}
	return b.String()
}
