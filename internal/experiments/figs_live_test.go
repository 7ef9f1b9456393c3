package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestLiveFiguresGolden renders Figs 20 and 21 at seed 1 and compares
// each text table with testdata/<fig>.golden byte for byte, so a change
// to how the live simulators apply their price updates, bids or churn
// cannot move an estimate or a truth digit unnoticed.
func TestLiveFiguresGolden(t *testing.T) {
	for id, run := range map[string]func(Options) (*Figure, error){"fig20": Fig20, "fig21": Fig21} {
		t.Run(id, func(t *testing.T) {
			f, err := run(Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			f.Write(&got)
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", id, id, got.Bytes(), want)
			}
		})
	}
}
