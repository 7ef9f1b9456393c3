package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// checkGolden renders f as a text table and compares it with
// testdata/<id>.golden byte for byte. A golden is what
// `dynagg-experiments -fig <id> -trials 1` prints without its last two
// lines (the timing line and the blank after it).
func checkGolden(t *testing.T, id string, f *Figure) {
	t.Helper()
	var got bytes.Buffer
	f.Write(&got)
	want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", id, id, got.Bytes(), want)
	}
}

// TestLiveFiguresGolden renders Figs 20 and 21 at seed 1 and compares
// each text table with its golden, so a change to how the live
// simulators apply their price updates, bids or churn cannot move an
// estimate or a truth digit unnoticed.
func TestLiveFiguresGolden(t *testing.T) {
	for id, run := range map[string]func(Options) (*Figure, error){"fig20": Fig20, "fig21": Fig21} {
		t.Run(id, func(t *testing.T) {
			f, err := run(Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, id, f)
		})
	}
}

// TestFiguresGolden regenerates every other figure at seed 1 and one
// trial and compares it with its golden, so a change to the harness, a
// figure's spec or anything beneath them (estimators, workloads, the
// store) cannot move a digit unnoticed. Figs 18 and 19 pin each
// algorithm's query cost: queries to each target error, cumulative
// queries and drill downs. Moving a figure on purpose means regenerating
// its golden with the command above.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates eighteen figures")
	}
	if raceEnabled {
		t.Skip("eighteen figures under the race detector take minutes")
	}
	for _, id := range IDs() {
		if id == "fig20" || id == "fig21" {
			continue // TestLiveFiguresGolden
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			f, err := Run(id, Options{Seed: 1, Trials: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, id, f)
		})
	}
}
