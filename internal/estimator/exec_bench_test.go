package estimator

import (
	"fmt"
	"testing"
	"time"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
)

// slowSession adds fixed per-query latency to a local session, standing
// in for a remote interface (network round trip) without a network. The
// sleep releases the CPU, so the workers=N/workers=1 ratio exposes the
// issuance parallelism even on a single core.
type slowSession struct {
	*hiddendb.Session
	delay time.Duration
}

func (s *slowSession) Search(q hiddendb.Query) (hiddendb.Result, error) {
	time.Sleep(s.delay)
	return s.Session.Search(q)
}

var _ hiddendb.ConcurrentSearcher = (*slowSession)(nil)
var _ Session = (*slowSession)(nil)

// BenchmarkEstimatorExec measures one RESTART round's drill-down
// issuance — the plan/execute engine's hot path — sequential vs
// concurrent, on the raw local snapshot and on a simulated 200µs-per-
// query remote. One op is one full budgeted round (G=400). Estimates are
// byte-identical across the workers sub-benchmarks; only wall-clock
// changes, so the ratio IS the issuance speedup. Recorded into
// BENCH_serving.out by `make bench-serving`.
func BenchmarkEstimatorExec(b *testing.B) {
	for _, mode := range []struct {
		name  string
		delay time.Duration
	}{
		{"local", 0},
		{"remote200us", 200 * time.Microsecond},
	} {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", mode.name, w), func(b *testing.B) {
				b.ReportAllocs()
				te := newTestEnv(b, 11, 30000, 27000, 100)
				c := cfg(12)
				c.Parallelism = w
				e, err := NewRestart(te.env.Store.Schema(),
					[]*agg.Aggregate{agg.CountAll()}, c)
				if err != nil {
					b.Fatal(err)
				}
				newSession := func() Session { return te.iface.NewSession(400) }
				if mode.delay > 0 {
					newSession = func() Session {
						return &slowSession{Session: te.iface.NewSession(400), delay: mode.delay}
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.Step(newSession()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
