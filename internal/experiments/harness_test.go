package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dynagg/dynagg/internal/workload"
)

func tinySpec() TrackSpec {
	return TrackSpec{
		Dataset:  func(seed int64) *workload.Dataset { return workload.AutosLikeN(seed, 8000, 10) },
		Initial:  7000,
		Schedule: workload.PoolChurn(100, 0.005),
		K:        100, G: 200, Rounds: 6,
		Aggs: countAggs,
	}
}

func TestRunTrackingShape(t *testing.T) {
	res, err := RunTracking(tinySpec(), Options{Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 6 || len(res.Truth) != 6 {
		t.Fatalf("rounds wrong: %d %d", res.Rounds, len(res.Truth))
	}
	for _, a := range AllAlgos {
		if len(res.RelErr[a]) != 6 || len(res.CumQueries[a]) != 6 {
			t.Fatalf("%s series length wrong", a)
		}
		// Cumulative queries must be non-decreasing and bounded by G·round.
		for i := 0; i < 6; i++ {
			if res.CumQueries[a][i] > float64(200*(i+1)) {
				t.Errorf("%s: cum queries %v exceed budget at round %d", a, res.CumQueries[a][i], i+1)
			}
			if i > 0 && res.CumQueries[a][i] < res.CumQueries[a][i-1] {
				t.Errorf("%s: cum queries decreased at %d", a, i)
			}
			if res.RelErr[a][i] < 0 || math.IsNaN(res.RelErr[a][i]) {
				t.Errorf("%s: bad rel err %v", a, res.RelErr[a][i])
			}
		}
		if f := res.FinalErr(a); math.IsNaN(f) || f > 1.5 {
			t.Errorf("%s: FinalErr %v", a, f)
		}
	}
	// Truth follows the schedule's net growth (+100, −0.5% per round).
	if res.Truth[5] <= res.Truth[0] {
		t.Errorf("truth did not grow: %v", res.Truth)
	}
}

func TestRunTrackingDeterministic(t *testing.T) {
	a, err := RunTracking(tinySpec(), Options{Seed: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTracking(tinySpec(), Options{Seed: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, al := range AllAlgos {
		for i := range a.RelErr[al] {
			if a.RelErr[al][i] != b.RelErr[al][i] {
				t.Fatalf("%s not deterministic at round %d", al, i+1)
			}
		}
	}
}

func TestRunTrackingDeltaMode(t *testing.T) {
	spec := tinySpec()
	spec.Delta = true
	res, err := RunTracking(spec, Options{Seed: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 has no delta; later rounds must.
	for _, a := range AllAlgos {
		if res.EstMean[a][0] != 0 {
			t.Errorf("%s: delta estimate present at round 1", a)
		}
	}
	if res.Truth[3] == 0 {
		t.Error("delta truth missing")
	}
}

func TestRunTrackingWindowMode(t *testing.T) {
	spec := tinySpec()
	spec.Window = 3
	res, err := RunTracking(spec, Options{Seed: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Window targets exist from round 3 on.
	if res.Truth[4] == 0 {
		t.Error("window truth missing at round 5")
	}
}

func TestTailMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := tailMean(xs, 2); got != 3.5 {
		t.Errorf("tailMean(_,2) = %v", got)
	}
	if got := tailMean(xs, 10); got != 2.5 {
		t.Errorf("tailMean(_,10) = %v", got)
	}
	if got := tailMean(nil, 3); got != 0 {
		t.Errorf("tailMean(nil) = %v", got)
	}
}

func TestRegistryAndIDs(t *testing.T) {
	ids := IDs()
	want := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21"}
	if len(ids) != len(want) {
		t.Fatalf("got %d figures: %v", len(ids), ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs()[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFigureWrite(t *testing.T) {
	f := &Figure{
		ID: "figX", Title: "test", XLabel: "x", YLabel: "y",
		X:       []float64{1, 2},
		XLabels: []string{"one"},
		Notes:   []string{"a note"},
	}
	f.AddSeries("A", []float64{0.5, 0.25})
	f.AddSeries("B", []float64{1}) // short series renders "-"
	var sb strings.Builder
	f.Write(&sb)
	out := sb.String()
	for _, want := range []string{"figX", "one", "0.5", "a note", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestQueriesToReach(t *testing.T) {
	res := &TrackResult{
		RelErr:     map[Algo][]float64{Restart: {0.5, 0.1, 0.4, 0.1, 0.08}},
		CumQueries: map[Algo][]float64{Restart: {100, 200, 300, 400, 500}},
	}
	// The dip at round 2 does not count: the error leaves the band again.
	if got := queriesToReach(res, Restart, 0.15); got != 400 {
		t.Errorf("queriesToReach = %v, want 400 (sustained entry)", got)
	}
	if got := queriesToReach(res, Restart, 0.05); !math.IsNaN(got) {
		t.Errorf("unreachable target = %v, want NaN", got)
	}
}

// Smoke-test the cheapest figure runners end to end at reduced trials,
// under the race detector only. Elsewhere TestFiguresGolden regenerates
// these very runs and pins them byte for byte (and TestLiveFiguresGolden
// always runs fig20 and fig21), so the test only checks that each of
// these figures has its golden.
func TestFigureRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke tests take seconds each")
	}
	ids := []string{"fig4", "fig5", "fig15", "fig16", "fig17", "fig18", "fig19"}
	if !raceEnabled {
		for _, id := range ids {
			if _, err := os.Stat(filepath.Join("testdata", id+".golden")); err != nil {
				t.Errorf("%s has no golden: %v", id, err)
			}
		}
		return
	}
	opt := Options{Seed: 1, Trials: 1}
	for _, id := range ids {
		f, err := Run(id, opt)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(f.Series) == 0 || len(f.X) == 0 {
			t.Fatalf("%s: empty figure", id)
		}
		for _, s := range f.Series {
			if len(s.Y) != len(f.X) {
				t.Errorf("%s: series %s has %d points, want %d", id, s.Label, len(s.Y), len(f.X))
			}
		}
	}
}

// The headline qualitative result (Fig 5 shape): under little change,
// REISSUE and RS both beat RESTART, and RS ends below REISSUE's plateau.
func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("takes a few seconds")
	}
	f, err := Run("fig5", Options{Seed: 1, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	final := map[string]float64{}
	for _, s := range f.Series {
		final[s.Label] = tailMean(s.Y, 10)
	}
	if final["RS"] >= final["REISSUE"] {
		t.Errorf("little change: RS %.3f not below REISSUE %.3f", final["RS"], final["REISSUE"])
	}
	if final["REISSUE"] >= final["RESTART"]*2 {
		t.Errorf("REISSUE %.3f wildly above RESTART %.3f", final["REISSUE"], final["RESTART"])
	}
}

func TestFigureWriteCSV(t *testing.T) {
	f := &Figure{ID: "figX", XLabel: "x", X: []float64{1, 2}}
	f.AddSeries("A", []float64{0.5, 0.25})
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "x,A\n1,0.5\n2,0.25\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}
