// Command dynagg-serve exposes a simulated dynamic hidden database over
// HTTP: a synthetic store behind the restrictive top-k interface, served
// concurrently to any number of clients through the webiface wire format,
// with optional per-API-key query budgets and round-by-round churn.
//
// It is the serving half of the paper's live-experiment setting: point
// estimators (dynagg.NewRemoteTracker, examples/remote) at it, or load
// test it (cmd/dynagg-loadgen) — reads are answered from immutable
// snapshots, so the churn goroutine never blocks a client. Serving
// diagnostics are exposed at /v1/stats (JSON) and /v1/metrics
// (Prometheus-style plaintext: query counts, store version, per-key
// budget accounting, answer-cache hit/miss/singleflight counters).
//
// With -shards N the store is hash-partitioned N ways: each round's
// churn is applied by one mutator goroutine per shard, a new version
// epoch (one immutable snapshot per shard) is published at the round
// boundary, and every query is answered by scatter-gather across the
// pinned epoch — byte-identical to the unsharded store.
//
// With -shard-mode the daemon serves as ONE shard of a dynagg-router
// fleet: the /v1/shard/* epoch admin wire is exposed, churn mutates
// under the admin's quiescence lock, and epoch publication is left
// entirely to the router's two-phase fleet handshake — the daemon never
// advances its own epoch. docs/deploy.md describes the topology.
//
// Usage examples:
//
//	dynagg-serve                                  # 40k tuples on :8080
//	dynagg-serve -addr :9090 -n 200000 -k 1000
//	dynagg-serve -budget 500 -round 10s           # G=500 per key per round
//	dynagg-serve -round 5s -insert 300 -delete 0.001
//	dynagg-serve -shards 8 -round 10s             # sharded scatter-gather
//	dynagg-serve -shard-mode -addr :8081          # one shard of a router fleet
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	dynagg "github.com/dynagg/dynagg"
	"github.com/dynagg/dynagg/internal/dbflags"
	"github.com/dynagg/dynagg/internal/obs"
	"github.com/dynagg/dynagg/internal/router"
	"github.com/dynagg/dynagg/webiface"
)

// fatal reports a startup error through the structured logger and exits.
func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "error", err)
	os.Exit(1)
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run parses args and serves until SIGINT or SIGTERM. It returns the
// exit status: 2 for a bad flag, before any database is built.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynagg-serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		n         = fs.Int("n", 40000, "dataset size (tuple pool)")
		init0     = fs.Int("initial", 0, "initial database size (default 90% of n)")
		m         = fs.Int("m", 38, "number of attributes (<=38)")
		k         = fs.Int("k", 250, "interface top-k cap")
		seed      = fs.Int64("seed", 1, "random seed")
		budget    = fs.Int("budget", 0, "per-API-key queries per round (0 = unlimited)")
		round     = fs.Duration("round", 0, "round length; every round applies churn and resets budgets (0 = static database)")
		insert    = fs.Int("insert", 300, "tuples inserted per round")
		del       = fs.Float64("delete", 0.001, "fraction of tuples deleted per round")
		shards    = fs.Int("shards", 1, "hash-partition the store N ways (scatter-gather serving)")
		shardMode = fs.Bool("shard-mode", false, "serve as one shard of a dynagg-router fleet: expose the /v1/shard/* epoch admin wire and leave epoch publication to the router")
		freezeTO  = fs.Duration("freeze-timeout", 30*time.Second, "shard mode: auto-abort a frozen epoch no router published in time")
		logFormat = fs.String("log-format", "text", "log output format: text or json")
		pprofAddr = fs.String("pprof-addr", "", "optional admin listener serving net/http/pprof (empty = disabled)")
		debugReqs = fs.Int("debug-requests", webiface.DefaultDebugRequests, "size of the /v1/debug/requests ring (<= 0 disables)")
		slowReq   = fs.Duration("slow-request", webiface.DefaultSlowRequest, "record successful requests at or above this latency in the debug ring (<= 0 records every request)")
	)
	fs.Parse(args) // ExitOnError: a malformed flag exits 2 here
	err := dbflags.DB{N: *n, Initial: *init0, M: *m, K: *k, Insert: *insert, Delete: *del}.Check()
	if err == nil && *shards < 1 {
		err = errors.New("-shards must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "dynagg-serve:", err)
		return 2
	}
	logger, err := obs.NewLogger(*logFormat, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	slog.SetDefault(logger)
	obs.ServePprof(*pprofAddr, logger)
	if *init0 == 0 {
		*init0 = *n * 9 / 10
	}

	data := dynagg.AutosLikeN(*seed, *n, *m)

	// backend abstracts over the serving stacks — unsharded, sharded, and
	// router-fleet shard — so the HTTP/lifecycle plumbing below is
	// written once.
	type backend struct {
		handler http.Handler
		reset   func() // restore per-key budgets at a round boundary
		size    func() int
		version func() uint64
		queries func() uint64
		churn   func() error // one round of churn (+ epoch publication unless the router owns it)
	}
	var b backend
	if *shardMode || *shards > 1 {
		env, err := dynagg.NewShardedEnv(data, *init0, *seed+1, *shards)
		if err != nil {
			fatal(logger, "sharded env", err)
		}
		iface := dynagg.NewShardedIface(env.Store, *k, nil)
		h := webiface.NewHandler(iface)
		h.SetPerKeyBudget(*budget)
		h.SetRequestLog(*debugReqs, *slowReq)
		b = backend{
			handler: h,
			reset:   h.ResetBudgets,
			size:    env.Store.Size,
			version: iface.Version,
			queries: iface.TotalQueries,
			churn: func() error {
				// Churn fans out one mutator goroutine per shard; the new
				// epoch is published only after every shard has applied
				// its partition, so clients never see a torn round.
				if err := env.InsertFromPool(*insert); err != nil {
					return err
				}
				if err := env.DeleteFraction(*del); err != nil {
					return err
				}
				env.Store.AdvanceEpoch()
				return nil
			},
		}
		if *shardMode {
			// As one shard of a router fleet the daemon never publishes
			// epochs itself: churn mutates under the admin's quiescence
			// lock and the router's two-phase handshake decides when a
			// new epoch becomes visible, fleet-wide. Budgets are the
			// router's to account, so the local round driver does not
			// reset them either.
			admin := router.NewShardAdmin(env.Store, h, router.AdminOptions{FreezeTimeout: *freezeTO})
			mutate := func() error {
				if err := env.InsertFromPool(*insert); err != nil {
					return err
				}
				return env.DeleteFraction(*del)
			}
			b.handler = admin
			b.churn = func() error { return admin.WithMutators(mutate) }
		}
	} else {
		env, err := dynagg.NewEnv(data, *init0, *seed+1)
		if err != nil {
			fatal(logger, "env", err)
		}
		iface := dynagg.NewIface(env.Store, *k, nil)
		h := webiface.NewHandler(iface)
		h.SetPerKeyBudget(*budget)
		h.SetRequestLog(*debugReqs, *slowReq)
		b = backend{
			handler: h,
			reset:   h.ResetBudgets,
			size:    env.Store.Size,
			version: env.Store.Version,
			queries: iface.TotalQueries,
			churn: func() error {
				if err := env.InsertFromPool(*insert); err != nil {
					return err
				}
				return env.DeleteFraction(*del)
			},
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *round > 0 {
		// The round driver goroutine: snapshot isolation (per-shard in
		// sharded mode) lets churn apply while clients keep reading the
		// previous version/epoch.
		go func() {
			t := time.NewTicker(*round)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				if err := b.churn(); err != nil {
					logger.Error("round churn failed", "error", err)
				}
				if !*shardMode {
					b.reset()
				}
				logger.Info("round complete",
					"size", b.size(), "version", b.version(), "queries", b.queries())
			}
		}()
	}

	srv := &http.Server{Addr: *addr, Handler: b.handler}
	go func() {
		// SIGINT/SIGTERM: stop accepting, drain in-flight requests for up
		// to 10s, then exit. Clients mid-search get their answers.
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Error("shutdown", "error", err)
		}
	}()

	logger.Info("serving hidden database",
		"addr", *addr, "size", b.size(), "k", *k, "m", *m, "budget", *budget,
		"round", (*round).String(), "shards", *shards, "shard_mode", *shardMode)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(logger, "listen", err)
	}
	logger.Info("drained; bye", "queries", b.queries())
	return 0
}
