package tracking

import (
	"net/http"
	"time"

	"github.com/dynagg/dynagg/internal/httpapi"
	"github.com/dynagg/dynagg/internal/metrics"
	"github.com/dynagg/dynagg/internal/obs"
)

// Handler exposes the service's current state over HTTP, mounted under
// the current API version (the deprecated unversioned aliases were
// removed; legacy paths get the 404 envelope):
//
//	GET /v1/status    → the full round View (algorithm, round, budget,
//	                    queries, estimates, last error)
//	GET /v1/estimates → just the estimates array
//	GET /v1/healthz   → 200 once at least one round completed without a
//	                    step error, 503 before that (readiness probe);
//	                    reports "api_version"
//	GET /v1/metrics   → Prometheus-style plaintext gauges (rounds, query
//	                    counts, budget, wasted speculative queries)
//
// All responses except /metrics are JSON; errors use the shared
// httpapi envelope. Reads never block a running round: they serve the
// immutable View published at the previous round boundary.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		// Versioned routes only: the deprecated unversioned aliases
		// were removed after their one-release grace period, so legacy
		// paths fall through to the 404 envelope.
		mux.HandleFunc("GET /"+httpapi.Version+pattern, h)
	}
	handle("/status", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, s.statusView())
	})
	handle("/estimates", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, s.CurrentView().Estimates)
	})
	handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		v := s.CurrentView()
		status := http.StatusOK
		if v.Steps == 0 || v.LastError != "" {
			status = http.StatusServiceUnavailable
		}
		httpapi.WriteJSON(w, status, map[string]any{
			"steps":       v.Steps,
			"last_error":  v.LastError,
			"api_version": httpapi.Version,
		})
	})
	handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.serveMetrics(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, "no such route")
	})
	return mux
}

// statusWire decorates the View with process uptime.
type statusWire struct {
	View
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Service) statusView() statusWire {
	return statusWire{View: s.CurrentView(), UptimeSeconds: time.Since(s.start).Seconds()}
}

// serveMetrics renders the current view as Prometheus plaintext. Like
// every other read it touches only the immutable published View.
func (s *Service) serveMetrics(w http.ResponseWriter) {
	v := s.CurrentView()
	var b metrics.Builder
	b.Family("dynagg_track_rounds_total", "counter", "Estimator rounds completed over its lifetime (survives resume).")
	b.Int("dynagg_track_rounds_total", v.Round)
	b.Family("dynagg_track_steps_total", "counter", "Rounds completed by this process.")
	b.Int("dynagg_track_steps_total", v.Steps)
	b.Family("dynagg_track_queries_total", "counter", "Queries issued by this process across all rounds.")
	b.Int("dynagg_track_queries_total", v.QueriesTotal)
	b.Family("dynagg_track_queries_last_round", "gauge", "Queries consumed by the last round.")
	b.Int("dynagg_track_queries_last_round", v.UsedLast)
	b.Family("dynagg_track_budget_last_round", "gauge", "Query budget granted to the last round (0 = unlimited).")
	b.Int("dynagg_track_budget_last_round", v.Budget)
	b.Family("dynagg_track_budget_remaining_last_round", "gauge", "Unused budget of the last round (-1 when unlimited).")
	if v.Budget > 0 {
		b.Int("dynagg_track_budget_remaining_last_round", v.Budget-v.UsedLast)
	} else {
		b.Int("dynagg_track_budget_remaining_last_round", -1)
	}
	b.Family("dynagg_track_wasted_queries_total", "counter", "Speculatively issued queries whose walks were never applied (estimator lifetime).")
	b.Int("dynagg_track_wasted_queries_total", v.Wasted)
	b.Family("dynagg_track_drill_downs_total", "counter", "Drill-down operations completed (estimator lifetime).")
	b.Int("dynagg_track_drill_downs_total", v.Drills)
	b.Family("dynagg_track_round_seconds", "histogram", "Per-round wall time: churn hook, estimator step and checkpoint write.")
	rs := s.RoundLatency()
	b.Histogram("dynagg_track_round_seconds", obs.Bounds(), rs.Counts, rs.SumSeconds)
	b.Family("dynagg_track_last_round_ms", "gauge", "Wall time of the last executed round in milliseconds.")
	b.Value("dynagg_track_last_round_ms", v.LastRoundMs)
	b.Family("dynagg_track_estimate", "gauge", "Current estimate per tracked aggregate.")
	for _, e := range v.Estimates {
		if e.OK {
			b.Value("dynagg_track_estimate", e.Value, "aggregate", e.Aggregate)
		}
	}
	if s.cfg.AnswerCacheStats != nil {
		cs := s.cfg.AnswerCacheStats()
		b.Family("dynagg_track_answer_cache_hits_total", "counter", "Answer-cache hits on the backing interface.")
		b.Value("dynagg_track_answer_cache_hits_total", float64(cs.Hits))
		b.Family("dynagg_track_answer_cache_misses_total", "counter", "Answer-cache misses (engine executions) on the backing interface.")
		b.Value("dynagg_track_answer_cache_misses_total", float64(cs.Misses))
		b.Family("dynagg_track_answer_cache_collapsed_total", "counter", "Concurrent identical queries collapsed by singleflight on the backing interface.")
		b.Value("dynagg_track_answer_cache_collapsed_total", float64(cs.Collapsed))
	}
	w.Header().Set("Content-Type", metrics.ContentType)
	_, _ = b.WriteTo(w)
}
