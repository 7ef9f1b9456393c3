// Command dynagg-router fronts a fleet of shard-mode dynagg-serve
// processes as ONE logical hidden database. It serves the full /v1/
// surface — search (one GET per query), schema, stats, healthz,
// metrics, debug/requests — through the same webiface.Handler as
// dynagg-serve, answering every search by scatter-gather across the
// fleet under one pinned epoch, with responses byte-identical to a
// single process serving the union of the shards. A search that cannot
// reach every shard under that epoch answers 503.
//
// The router owns the fleet's epoch lifecycle: on -epoch-every it drives
// the two-phase handshake (freeze every shard with mutators quiescent,
// then publish a fleet-wide sequence; any failure rolls every shard back
// to the prior epoch), and on -probe-every it sweeps shard health,
// re-handshaking when a restarted shard is found serving a stale epoch.
// Per-key budgets are accounted at the router (fleet epochs are the
// rounds); shard daemons behind it should run unlimited.
//
// Usage:
//
//	dynagg-serve -shard-mode -addr :8081 &
//	dynagg-router -addr :8080 -shards http://localhost:8081
//
// Shards must hold disjoint tuple IDs; the router answers 503 to a
// search that meets one ID on two shards. docs/deploy.md describes the
// topology, handshake and failure semantics in operator terms.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/dynagg/dynagg/internal/obs"
	"github.com/dynagg/dynagg/internal/router"
	"github.com/dynagg/dynagg/webiface"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		shards     = flag.String("shards", "", "comma-separated shard base URLs (required)")
		budget     = flag.Int("budget", 0, "per-API-key queries per fleet epoch (0 = unlimited)")
		epochEvery = flag.Duration("epoch-every", 10*time.Second, "fleet epoch handshake interval (0 = only the startup handshake)")
		probeEvery = flag.Duration("probe-every", 2*time.Second, "shard health probe interval (0 = no probing)")
		retries    = flag.Int("retries", 2, "per-shard request retries with exponential backoff")
		timeout    = flag.Duration("timeout", 5*time.Second, "per-shard request attempt timeout")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		pprofAddr  = flag.String("pprof-addr", "", "optional admin listener serving net/http/pprof (empty = disabled)")
		debugReqs  = flag.Int("debug-requests", webiface.DefaultDebugRequests, "size of the /v1/debug/requests ring (<= 0 disables)")
		slowReq    = flag.Duration("slow-request", webiface.DefaultSlowRequest, "record successful requests at or above this latency in the debug ring (<= 0 records every request)")
	)
	flag.Parse()
	logger, err := obs.NewLogger(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	obs.ServePprof(*pprofAddr, logger)
	bases := strings.Split(*shards, ",")
	clean := bases[:0]
	for _, b := range bases {
		if b = strings.TrimSpace(b); b != "" {
			clean = append(clean, b)
		}
	}
	if len(clean) == 0 {
		logger.Error("-shards is required (comma-separated shard base URLs)")
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Dial the fleet, retrying while shards are still coming up.
	var rt *router.Router
	for {
		var err error
		rt, err = router.New(clean, router.Options{
			Client: webiface.ClientOptions{
				Retries:        *retries,
				RequestTimeout: *timeout,
			},
			PerKeyBudget:  *budget,
			AdminTimeout:  *timeout,
			DebugRequests: *debugReqs,
			SlowRequest:   *slowReq,
			Logger:        logger,
		})
		if err == nil {
			break
		}
		logger.Warn("dial fleet failed; retrying", "error", err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Second):
		}
	}

	// Startup handshake: pin the first fleet epoch before serving.
	for {
		seq, err := rt.Handshake(ctx)
		if err == nil {
			logger.Info("fleet epoch published", "epoch", seq, "shards", rt.NumShards())
			break
		}
		logger.Warn("startup handshake failed; retrying", "error", err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Second):
		}
	}

	if *epochEvery > 0 {
		go func() {
			t := time.NewTicker(*epochEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				if seq, err := rt.Handshake(ctx); err != nil {
					logger.Error("epoch handshake failed", "error", err)
				} else {
					logger.Info("fleet epoch published", "epoch", seq)
				}
			}
		}()
	}

	if *probeEvery > 0 {
		go func() {
			t := time.NewTicker(*probeEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				rep := rt.ProbeOnce(ctx)
				if rep.Unreachable > 0 || rep.Mismatched > 0 {
					logger.Warn("probe found unhealthy shards",
						"healthy", rep.Healthy, "unreachable", rep.Unreachable, "stale_epoch", rep.Mismatched)
				}
				if rep.NeedsHandshake() && rep.Unreachable == 0 {
					// A restarted shard is back but serving its own epoch;
					// re-align the fleet so its answers count again.
					if seq, err := rt.Handshake(ctx); err != nil {
						logger.Error("re-handshake failed", "error", err)
					} else {
						logger.Info("fleet re-aligned", "epoch", seq)
					}
				}
			}
		}()
	}

	srv := &http.Server{Addr: *addr, Handler: rt}
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Error("shutdown", "error", err)
		}
	}()

	logger.Info("routing fleet",
		"addr", *addr, "shards", rt.NumShards(), "k", rt.K(), "budget", *budget,
		"epoch_every", (*epochEvery).String())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen", "error", err)
		os.Exit(1)
	}
	logger.Info("drained; bye", "epoch", rt.Seq())
}
