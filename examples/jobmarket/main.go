// Jobmarket: the paper's motivating scenario — an economist tracking the
// number of active job postings on a hidden job board (think monster.com),
// including a skill-specific sub-count, under a strict daily API quota.
//
// Each algorithm gets two trackers on the one job board, sharing the
// algorithm's daily quota:
//
//   - one for COUNT(*) over all postings (full query tree), and
//   - one for COUNT(*) WHERE skill=java, which the estimators serve from
//     the selection subtree (§3.3) — every drill-down query carries the
//     skill predicate, so the whole budget works inside the slice of the
//     database the analyst cares about.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	dynagg "github.com/dynagg/dynagg"
)

const (
	days       = 15
	dailyQuota = 800 // the job board allows 800 API calls per day
	topK       = 100
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	data := dynagg.AutosLikeN(23, 50000, 20) // postings: 20 searchable facets
	board, err := dynagg.NewEnv(data, 42000, 12)
	if err != nil {
		return err
	}
	iface := dynagg.NewIface(board.Store, topK, nil)
	// Facet 2 value 0 plays the role of "skill = Java".
	javaSpec := dynagg.CountWhere("COUNT(skill=java)",
		dynagg.NewQuery(dynagg.Pred{Attr: 2, Val: 0}))

	// One pair of trackers per algorithm, all on the one job board.
	type runner struct {
		algo dynagg.Algorithm
		all  *dynagg.Tracker // COUNT(*) — full tree
		java *dynagg.Tracker // COUNT(skill=java) — selection subtree
	}
	var runners []*runner
	for _, algo := range []dynagg.Algorithm{dynagg.AlgoRestart, dynagg.AlgoReissue, dynagg.AlgoRS} {
		all, err := dynagg.NewTracker(iface,
			[]*dynagg.Aggregate{dynagg.CountAll()},
			dynagg.TrackerOptions{Algorithm: algo, Budget: dailyQuota / 2, Seed: 13})
		if err != nil {
			return err
		}
		java, err := dynagg.NewTracker(iface,
			[]*dynagg.Aggregate{javaSpec},
			dynagg.TrackerOptions{Algorithm: algo, Budget: dailyQuota / 2, Seed: 14})
		if err != nil {
			return err
		}
		runners = append(runners, &runner{algo: algo, all: all, java: java})
	}

	fmt.Fprintln(w, "day | truth(all) | truth(java) | per-algorithm relative error (all postings)")
	var truthAll, truthJava float64
	for day := 1; day <= days; day++ {
		if day > 1 {
			// Daily churn: new postings appear, filled/expired ones go.
			if err := board.DeleteFraction(0.02); err != nil {
				return err
			}
			if err := board.InsertFromPool(900); err != nil {
				return err
			}
		}
		truthAll = float64(board.Store.Size())
		truthJava = javaSpec.Truth(board.Store)
		row := ""
		for _, r := range runners {
			if err := r.all.Step(); err != nil {
				return err
			}
			if err := r.java.Step(); err != nil {
				return err
			}
			est, ok := r.all.Estimate(0)
			if !ok {
				return fmt.Errorf("%s: no estimate on day %d", r.algo, day)
			}
			row += fmt.Sprintf("  %s %5.1f%%", r.algo, 100*math.Abs(est.Value-truthAll)/truthAll)
		}
		fmt.Fprintf(w, "%3d | %10.0f | %11.0f |%s\n", day, truthAll, truthJava, row)
	}

	fmt.Fprintln(w, "\nskill-specific count on the final day (selection-subtree trackers):")
	for _, r := range runners {
		est, ok := r.java.Estimate(0)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-8s estimate %7.0f  (truth %6.0f, rel err %.1f%%)\n",
			r.algo, est.Value, truthJava, 100*math.Abs(est.Value-truthJava)/truthJava)
	}
	return nil
}
