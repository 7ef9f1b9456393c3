// Command dynagg-fleet runs the multi-tenant tracking fleet: one
// scheduler multiplexing many tracked aggregates — local simulations
// and/or remote dynagg-serve URLs — over a shared per-tick query budget
// (weighted fair sharing), a shared per-host client pool, and per-task
// crash/resume checkpoints under one fleet directory.
//
// Tasks come from a JSON manifest (-manifest, an array of task specs)
// and/or the HTTP control plane at runtime; with -dir set, the whole
// fleet — task specs, tick counter, every task's drill-down pool — is
// restored on restart.
//
// Usage examples:
//
//	dynagg-fleet -manifest tasks.json -dir /var/lib/dynagg/fleet \
//	    -tick 1m -tick-budget 2000
//	dynagg-fleet -tick 10s                # empty fleet; add tasks over HTTP
//	dynagg-fleet -manifest one.json -tick-budget 500 -local-seed 1
//	    # one tracked aggregate: a manifest holding one spec
//	    # (docs/api.md, "Tracking one aggregate")
//
// A manifest entry looks like:
//
//	{"id": "amazon-count", "remote": "http://db:8080", "algorithm": "RS",
//	 "weight": 2, "seed": 7,
//	 "aggregates": [{"kind": "AVG", "aux_field": 0, "name": "AVG(price)"}]}
//
// Local entries use "target": "local" (the built-in churned simulation)
// instead of "remote". While running:
//
//	curl localhost:8095/v1/status                 # fleet + per-task rows
//	curl localhost:8095/v1/tasks                  # task list
//	curl -X POST localhost:8095/v1/tasks -d @spec.json
//	curl -X POST localhost:8095/v1/tasks/amazon-count/pause
//	curl -X DELETE localhost:8095/v1/tasks/amazon-count
//	curl localhost:8095/v1/tasks/amazon-count/estimates
//	curl localhost:8095/v1/metrics                # Prometheus plaintext
//
// Interrupting the process (SIGINT/SIGTERM) finishes the in-flight tick,
// drains the control plane and exits; restarting with the same -dir
// resumes every task mid-stream.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	dynagg "github.com/dynagg/dynagg"
	"github.com/dynagg/dynagg/internal/fleet"
	"github.com/dynagg/dynagg/internal/obs"
	"github.com/dynagg/dynagg/internal/tracking"
	"github.com/dynagg/dynagg/webiface"
)

// fatal reports a startup error through the structured logger and exits.
func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "error", err)
	os.Exit(1)
}

func main() {
	var (
		addr       = flag.String("addr", ":8095", "control-plane HTTP listen address (empty = disabled)")
		dir        = flag.String("dir", "", "fleet directory: task checkpoints + state; restart resumes the whole fleet (empty = no persistence)")
		manifest   = flag.String("manifest", "", "JSON task manifest (array of task specs) loaded at start")
		tick       = flag.Duration("tick", 10*time.Second, "scheduler tick cadence")
		ticks      = flag.Int("ticks", 0, "stop after this many ticks (0 = run until interrupted)")
		tickBudget = flag.Int("tick-budget", 1000, "global query budget split across runnable tasks each tick (0 = unlimited, local only)")

		// Built-in local simulation target (referenced as "target": "local").
		localN      = flag.Int("local-n", 40000, "local target: dataset size")
		localM      = flag.Int("local-m", 12, "local target: attributes (<=38)")
		localK      = flag.Int("local-k", 250, "local target: interface top-k cap")
		localSeed   = flag.Int64("local-seed", 1, "local target: dataset/churn seed")
		localInsert = flag.Int("local-insert", 300, "local target: tuples inserted per tick")
		localDelete = flag.Float64("local-delete", 0.001, "local target: fraction deleted per tick")

		// Shared remote-client defaults (per-task api_key overrides the key).
		minInterval = flag.Duration("min-interval", 0, "remote clients: minimum spacing between requests")
		reqTimeout  = flag.Duration("timeout", 15*time.Second, "remote clients: per-request timeout")

		logFormat = flag.String("log-format", "text", "log output format: text or json")
		pprofAddr = flag.String("pprof-addr", "", "optional admin listener serving net/http/pprof (empty = disabled)")
	)
	flag.Parse()
	logger, err := obs.NewLogger(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	obs.ServePprof(*pprofAddr, logger)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	data := dynagg.AutosLikeN(*localSeed+100, *localN, *localM)
	env, err := dynagg.NewEnv(data, *localN*9/10, *localSeed+101)
	if err != nil {
		fatal(logger, "env", err)
	}
	iface := dynagg.NewIface(env.Store, *localK, nil)
	local := fleet.Target{
		Schema:           iface.Schema(),
		Source:           func(g int) tracking.Session { return iface.NewSession(g) },
		AnswerCacheStats: iface.CacheStats,
		PreTick: func(tick int) error {
			if tick == 1 {
				return nil
			}
			if err := env.InsertFromPool(*localInsert); err != nil {
				return err
			}
			if err := env.DeleteFraction(*localDelete); err != nil {
				return err
			}
			logger.Info("local churn applied", "size", env.Store.Size(), "version", env.Store.Version())
			return nil
		},
	}

	mgr, err := fleet.New(fleet.Config{
		TickBudget: *tickBudget,
		Interval:   *tick,
		Dir:        *dir,
		MaxTicks:   *ticks,
		Targets:    map[string]fleet.Target{"local": local},
		Client: webiface.ClientOptions{
			MinInterval:    *minInterval,
			RequestTimeout: *reqTimeout,
		},
	})
	if err != nil {
		fatal(logger, "fleet manager", err)
	}
	if st := mgr.Status(); st.TaskCount > 0 || len(st.FailedTasks) > 0 {
		logger.Info("fleet restored", "tasks", st.TaskCount, "dir", *dir, "tick", mgr.Ticks())
		for _, f := range st.FailedTasks {
			logger.Warn("task not restored; kept in state (POST the spec again or DELETE it)",
				"task", f.ID, "error", f.Error)
		}
	}

	if *manifest != "" {
		raw, err := os.ReadFile(*manifest)
		if err != nil {
			fatal(logger, "manifest", err)
		}
		var specs []fleet.TaskSpec
		if err := json.Unmarshal(raw, &specs); err != nil {
			fatal(logger, "manifest decode", err)
		}
		added := 0
		for _, spec := range specs {
			if _, exists := mgr.TaskView(spec.ID); exists {
				// The restored spec wins over the manifest entry — edits to
				// a live task's manifest line do NOT apply on restart.
				logger.Info("manifest entry ignored: task already restored (delete the task to apply manifest changes)",
					"task", spec.ID, "dir", *dir)
				continue
			}
			if err := mgr.Add(spec); err != nil {
				// One unreachable remote (or bad entry) must not take the
				// rest of the fleet down — mirror the restore path's
				// tolerate-and-surface behaviour. POST the spec once the
				// target recovers, or fix the manifest and restart.
				logger.Warn("manifest task not added", "task", spec.ID, "error", err)
				continue
			}
			added++
		}
		logger.Info("manifest loaded", "added", added, "path", *manifest)
	}

	if *addr != "" {
		srv := &http.Server{Addr: *addr, Handler: mgr.Handler()}
		go func() {
			logger.Info("control plane listening", "addr", *addr)
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("control plane failed", "error", err)
			}
		}()
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
		}()
	}

	logger.Info("fleet scheduler started",
		"tick", (*tick).String(), "tick_budget", *tickBudget, "tasks", mgr.Status().TaskCount)
	if err := mgr.Run(ctx); err != nil {
		fatal(logger, "run", err)
	}
	st := mgr.Status()
	logger.Info("fleet stopped",
		"tick", st.Ticks, "tasks", st.TaskCount, "rounds", st.RoundsTotal,
		"queries", st.QueriesTotal, "wasted", st.WastedTotal)
	for _, t := range st.Tasks {
		for _, e := range t.View.Estimates {
			if e.OK {
				logger.Info("final estimate",
					"task", t.ID, "aggregate", e.Aggregate, "value", e.Value, "round", t.View.Round)
			}
		}
	}
}
