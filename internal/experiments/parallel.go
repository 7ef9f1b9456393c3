package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the trial-level parallel execution engine.
//
// Concurrency contract (see also doc.go "Concurrency" and ROADMAP.md):
// the unit of parallelism is one TRIAL. Every trial owns its entire
// mutable world — its workload.Env and hiddendb.Store/Iface/Session, its
// estimator instances and every rand.Rand — all derived deterministically
// from trialSeed(opt.Seed, trial), and builds its own workload.Dataset
// (read-only once generated; every Env keeps its own fresh-tuple keys).
// Nothing mutable crosses a trial boundary; the only shared inputs are
// immutable-after-construction values (schema.Schema, querytree.Tree,
// TrackSpec closures over plain parameters). Aggregation happens after
// the fact, in trial-index order, so that the float accumulation order —
// and therefore every figure — is byte-identical to a sequential run
// with the same seed.

// trialSeed derives the dataset seed of one trial. Trials are spaced
// 1000 apart in seed space, and each trial's components draw from fixed
// offsets of its dataSeed (dataset: +0, env: +1, estimator: +7), so the
// per-trial RNG streams never share a source seed.
func trialSeed(base int64, trial int) int64 {
	return base + int64(trial)*1000
}

// envSeedOffset and rngSeedOffset are the fixed per-trial seed offsets;
// named so tests can assert the streams stay disjoint.
const (
	envSeedOffset = 1
	rngSeedOffset = 7
)

// runTrials executes run(trial) for trial 0..n-1 on a bounded pool of
// worker goroutines and returns the results ordered by trial index.
// workers <= 0 means runtime.GOMAXPROCS(0); workers == 1 degenerates to
// the plain sequential loop. run must be self-contained (no shared
// mutable state): each invocation executes on whichever worker claims
// it. On error the pool stops claiming new trials and the error of the
// lowest-indexed failed trial that ran is returned; when several trials
// fail concurrently, which of their errors surfaces is the only
// nondeterminism the engine permits.
func runTrials[T any](n, workers int, run func(trial int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			r, err := run(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, n)
	var (
		next   atomic.Int64 // next unclaimed trial index
		failed atomic.Bool  // set on first error; stops new claims
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := run(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
