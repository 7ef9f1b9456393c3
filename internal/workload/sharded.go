package workload

import "github.com/dynagg/dynagg/internal/hiddendb"

// ShardedEnv is Env over a hash-partitioned ShardedStore: the same pool,
// with every batch applied by ShardedStore.ApplyBatch (one mutator
// goroutine per shard). Built with the same (data, initial, seed) as an
// Env it loads the identical tuple set with identical IDs and, under the
// same batch churn, evolves identically — the shard-equivalence tests
// rely on this to mirror churn across a sharded and an unsharded store.
//
// Ownership: single-goroutine, like Env. The per-shard parallelism lives
// inside each batch application, not across callers.
type ShardedEnv struct {
	pool
	Store *hiddendb.ShardedStore
}

// NewShardedEnv creates a sharded store preloaded with `initial`
// uniformly chosen pool tuples, drawing from the same seeded RNG stream
// as NewEnv.
func NewShardedEnv(data *Dataset, initial int, seed int64, shards int) (*ShardedEnv, error) {
	e := &ShardedEnv{Store: hiddendb.NewShardedStore(data.Schema, shards)}
	if err := e.load(data, initial, seed, e.Store); err != nil {
		return nil, err
	}
	return e, nil
}

// InsertFromPool inserts n uniformly chosen pool tuples not currently in
// the database, falling back to fresh tuples when the pool runs dry.
func (e *ShardedEnv) InsertFromPool(n int) error {
	return e.Store.ApplyBatch(e.draw(n), nil)
}

// DeleteRandom deletes n uniformly chosen tuples (or every tuple if
// fewer remain), returning pool-origin tuples to the available pool.
func (e *ShardedEnv) DeleteRandom(n int) error {
	return e.Store.ApplyBatch(nil, e.victims(e.Store.IDs(), n))
}

// DeleteFraction deletes ⌊f·|D|⌋ uniformly chosen tuples.
func (e *ShardedEnv) DeleteFraction(f float64) error {
	return e.DeleteRandom(int(f * float64(e.Store.Size())))
}
