// Package dynagg estimates and tracks aggregate queries (COUNT, SUM, AVG —
// with or without selection conditions, single-round and trans-round) over
// dynamic hidden web databases: databases reachable only through a
// restrictive top-k conjunctive search interface with a per-round query
// budget.
//
// It is a from-scratch reproduction of
//
//	"Aggregate Estimation Over Dynamic Hidden Web Databases",
//	Weimo Liu, Saravanan Thirumuruganathan, Nan Zhang, Gautam Das.
//	VLDB 2014 (arXiv:1403.2763).
//
// The package exposes three estimators sharing one drill-down machinery:
//
//   - RESTART — the baseline: rerun the static drill-down estimator of
//     Dasgupta et al. (SIGMOD 2010) from scratch every round.
//   - REISSUE — keep the random signature set fixed across rounds and
//     update each drill down from its previous top non-overflowing node,
//     saving nearly the whole path when the database changed little.
//   - RS — a reservoir-style estimator that bootstraps the amount of
//     change each round, splits the budget between updating old drill
//     downs and starting new ones, and combines per-group estimates by
//     inverse variance.
//
// # Quick start
//
//	data := dynagg.AutosLikeN(1, 40000, 38)      // synthetic hidden DB
//	env, _ := dynagg.NewEnv(data, 36000, 2)
//	iface := dynagg.NewIface(env.Store, 1000, nil) // top-1000 interface
//
//	tr, _ := dynagg.NewTracker(iface, []*dynagg.Aggregate{dynagg.CountAll()},
//	    dynagg.TrackerOptions{Algorithm: dynagg.AlgoReissue, Budget: 500, Seed: 7})
//
//	for round := 1; round <= 50; round++ {
//	    if round > 1 {
//	        _ = env.InsertFromPool(300)          // the database changes...
//	        _ = env.DeleteFraction(0.001)
//	    }
//	    _ = tr.Step()                            // ...and we keep tracking
//	    est, _ := tr.Estimate(0)
//	    fmt.Println(round, est.Value)
//	}
//
// Estimators only ever touch the Searcher interface, so a Tracker can
// equally drive a client for a real web API: implement Searcher with HTTP
// calls and the same algorithms apply unchanged.
//
// # Concurrency
//
// The engine is built around versioned immutable snapshots. A Store
// publishes a Snapshot of each version — the sorted tuple sequence, cut
// into leaves of about 512 tuples, plus per-(attribute, value) inverted
// posting lists. Before changing them it copies the leaf arrays, each
// leaf and each list map a published snapshot references (the snapshot
// keeps sharing every leaf the store leaves alone), and it never writes a
// posting list once built (a mutation installs a rebuilt list for each
// value it touches), so a snapshot is frozen forever once taken. Three
// things follow:
//
//   - Frozen per round: all query answering (Iface.Search, posting-list
//     intersection, prefix binary search, full scan) runs against the
//     snapshot of the current store version; answers are byte-identical
//     across access paths and across any number of concurrent readers.
//   - Shared by readers: Store.Snapshot, Iface (its snapshot pointer,
//     sharded answer cache and query counter) and webiface.Handler are
//     safe for any number of concurrent reader goroutines — many
//     sessions can search one frozen round at once, and a single
//     mutator goroutine may apply the next round's updates while they
//     do (mutations are serialised internally and never touch published
//     snapshots).
//   - Plan/execute inside a round: every estimator Step first PLANS its
//     drill-down walks — drawing all randomness from its rand.Rand up
//     front, one goroutine — and then an execution engine issues the
//     planned walks concurrently (TrackerOptions.Parallelism /
//     estimator.Config.Parallelism / DYNAGG_ESTIMATOR_WORKERS), applying
//     results in drill-index order. A wave of walks is admitted only
//     when its worst-case cost fits the remaining budget, and the tail
//     runs one walk at a time with everything left, so estimates are
//     byte-identical for every worker count. Sessions carry atomic
//     budget accounting for exactly this bounded fan-out: one Session
//     (local or webiface) may be shared by the walk goroutines of ONE
//     Step. Sessions that cannot be searched concurrently — a pre-search
//     hook couples query order to mutation (constant-update model) —
//     report so and are served sequentially.
//   - Still single-goroutine: a Tracker, every estimator (only its
//     internal engine fans out), Env and every rand.Rand belong to one
//     goroutine. Do not share one session across estimators or across
//     rounds; estimators may take turns on one Iface, each with a
//     session of its own per round.
//
// # Sharded stores and epochs
//
// ShardedStore hash-partitions a store N ways on tuple ID (NewShardedStore;
// ShardFor gives the owning shard). Each shard is a full Store with its own
// sorted-tuple snapshot, version and posting lists, and the concurrency
// contract scales per shard:
//
//   - Shard ownership: every mutation is routed to the tuple's owning
//     shard; AT MOST ONE mutator goroutine per shard at a time.
//     ShardedStore.ApplyBatch partitions a round's batch and applies it
//     with exactly one goroutine per shard — the sharded write path at
//     full width. Cross-shard batches are not atomic: a failing shard
//     is left unchanged while the others keep their part, and the round
//     driver owns recovery.
//   - Epoch publication: an Epoch pins one immutable snapshot per shard
//     under a single fleet-wide sequence number. AdvanceEpoch must be
//     called from the round driver with all mutators quiescent (after
//     ApplyBatch returns); it snapshots every shard and publishes the
//     set atomically. Readers never assemble their own cross-shard view
//     — they read the published Epoch pointer.
//   - Scatter-gather answering: ShardedIface answers Search and
//     CountMatching by querying every pinned shard snapshot in shard
//     order, folding each into one running top-k. Answers are
//     byte-identical to an unsharded Iface over the same data for every
//     shard count (the shard-equivalence fuzz proves this under churn
//     for shards ∈ {1, 4, 16}).
//   - Epoch-pinned sessions: ShardedIface.NewSession pins the epoch
//     current at creation; every answer of that session — including
//     SearchBatch — is served from that one epoch, so a round's session
//     never observes two epochs no matter how many advance under it.
//
// The unit of parallelism for experiments remains one independent
// Monte-Carlo TRIAL: the harness (internal/experiments) runs each trial
// on its own worker goroutine with a fully isolated environment derived
// deterministically from seed+trialIndex — one database, churned once
// per round, that every algorithm's estimator queries in turn on its
// own session — and aggregates results by trial index, so a parallel
// run is byte-identical to a sequential one with the same seed
// (Options.Workers, default one per core).
// Options.Parallelism adds the intra-trial axis on top: each trial's
// estimators fan their drill-down issuance out without changing a digit
// of any figure. Immutable-after-construction values — schema.Schema,
// querytree.Tree, a generated Dataset, every published Snapshot — may
// be shared freely. The contract is enforced by a race-detector CI job
// (make race) covering the engine, the estimator executor, the tracking
// service, the experiment harness, the workload pools and the HTTP
// serving layer.
//
// # Continuous tracking
//
// internal/tracking runs an estimator as a long-lived workload over a
// live database (local store with churn or a remote dynagg-serve URL):
// one budgeted round per StepBudget call, an atomic checkpoint after
// every round for crash/resume via the estimator persistence
// snapshots, and an immutable View of the current estimates. It has no
// clock or HTTP surface of its own: cmd/dynagg-fleet ticks it and
// serves it, and tracking one aggregate is a fleet of one task
// (docs/api.md, "Tracking one aggregate").
//
// # Multi-tenant fleets
//
// internal/fleet + cmd/dynagg-fleet multiplex MANY tracked aggregates
// over shared resources: a fleet manager owns N tasks (each one
// tracking.Service bound to a local target or a remote dynagg-serve
// URL), splits a global per-tick query budget across them by weighted
// fair sharing (leftovers redistributed deterministically by task ID),
// pools webiface clients per host so tasks against one remote share its
// rate-limiter slots, and checkpoints every task under one fleet
// directory so a crash or restart resumes the whole fleet. An HTTP
// control plane adds/removes/pauses tasks at runtime. The fleet
// ownership rules extend the contract above:
//
//   - The scheduler goroutine owns all task stepping: one task at a
//     time, in ascending task-ID order; only each task's estimator
//     fans out internally. Per-task estimates are byte-identical to an
//     equally budgeted standalone tracking.Service
//     (TestFleetMatchesStandalone in internal/fleet proves this).
//   - The control plane owns only the task table (manager mutex);
//     mutations take effect at tick boundaries and never touch a
//     service beyond reading its immutable View.
//   - Target churn hooks run once per tick on the scheduler goroutine,
//     no matter how many tasks share the target; pooled clients are
//     concurrent-safe by construction.
package dynagg
