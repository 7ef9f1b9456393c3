package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"

	"github.com/dynagg/dynagg/internal/httpapi"
	"github.com/dynagg/dynagg/internal/metrics"
	"github.com/dynagg/dynagg/internal/obs"
)

// Handler exposes the fleet control plane, mounted under the current API
// version (the deprecated unversioned aliases were removed; legacy
// paths get the 404 envelope):
//
//	GET    /v1/status              → fleet Status (ticks, budgets, per-task rows)
//	GET    /v1/healthz             → 200 once a tick completed, 503 before;
//	                                 reports "api_version"
//	GET    /v1/metrics             → Prometheus-style plaintext
//	GET    /v1/tasks               → all TaskStatus rows
//	POST   /v1/tasks               → add a task (TaskSpec JSON body)
//	GET    /v1/tasks/{id}          → one TaskStatus
//	DELETE /v1/tasks/{id}          → remove the task (checkpoint retained)
//	POST   /v1/tasks/{id}/pause    → pause from the next tick
//	POST   /v1/tasks/{id}/resume   → resume from the next tick
//	GET    /v1/tasks/{id}/estimates→ the task's current estimates array
//
// Errors use the shared httpapi JSON envelope. Mutations only touch the
// task table (manager mutex) and take effect at the next tick boundary;
// reads serve immutable views and never block the scheduler.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(method, pattern string, h http.HandlerFunc) {
		// Versioned routes only: the deprecated unversioned aliases
		// were removed after their one-release grace period, so legacy
		// paths fall through to the 404 envelope.
		mux.HandleFunc(method+" /"+httpapi.Version+pattern, h)
	}
	handle("GET", "/status", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, m.Status())
	})
	handle("GET", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness probes fire often: answer from cheap counters instead
		// of assembling the full per-task Status — and key on ticks THIS
		// process completed, so a freshly restarted fleet (whose restored
		// lifetime counter is already high) only reports ready once its
		// own scheduler has actually advanced.
		ticks := m.ProcessTicks()
		code := http.StatusOK
		if ticks == 0 {
			code = http.StatusServiceUnavailable
		}
		httpapi.WriteJSON(w, code, map[string]any{
			"ticks_this_process": ticks,
			"ticks":              m.Ticks(),
			"tasks":              m.TaskCount(),
			"api_version":        httpapi.Version,
		})
	})
	handle("GET", "/metrics", func(w http.ResponseWriter, r *http.Request) {
		m.serveMetrics(w)
	})
	handle("GET", "/tasks", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, m.Status().Tasks)
	})
	handle("POST", "/tasks", func(w http.ResponseWriter, r *http.Request) {
		var spec TaskSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, "decode task spec: "+err.Error())
			return
		}
		if err := m.Add(spec); err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrTaskExists) {
				code = http.StatusConflict
			}
			httpapi.WriteError(w, code, httpapi.CodeBadRequest, err.Error())
			return
		}
		ts, _ := m.TaskView(spec.ID)
		httpapi.WriteJSON(w, http.StatusCreated, ts)
	})
	handle("GET", "/tasks/{id}", func(w http.ResponseWriter, r *http.Request) {
		ts, ok := m.TaskView(r.PathValue("id"))
		if !ok {
			httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, "no such task")
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, ts)
	})
	handle("DELETE", "/tasks/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Remove(r.PathValue("id")); err != nil {
			httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, err.Error())
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"removed": r.PathValue("id")})
	})
	setPaused := func(paused bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			if err := m.SetPaused(id, paused); err != nil {
				httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, err.Error())
				return
			}
			ts, _ := m.TaskView(id)
			httpapi.WriteJSON(w, http.StatusOK, ts)
		}
	}
	handle("POST", "/tasks/{id}/pause", setPaused(true))
	handle("POST", "/tasks/{id}/resume", setPaused(false))
	handle("GET", "/tasks/{id}/estimates", func(w http.ResponseWriter, r *http.Request) {
		ts, ok := m.TaskView(r.PathValue("id"))
		if !ok {
			httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, "no such task")
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, ts.View.Estimates)
	})
	return mux
}

// serveMetrics renders the fleet snapshot as Prometheus plaintext,
// fleet-level families first, then per-task samples labelled by task ID
// (tasks are already in ascending-ID order).
func (m *Manager) serveMetrics(w http.ResponseWriter) {
	st := m.Status()
	var b metrics.Builder
	b.Family("dynagg_fleet_ticks_total", "counter", "Scheduler ticks completed (lifetime, survives restart).")
	b.Int("dynagg_fleet_ticks_total", st.Ticks)
	b.Family("dynagg_fleet_tick_budget", "gauge", "Global per-tick query budget (0 = unlimited).")
	b.Int("dynagg_fleet_tick_budget", st.TickBudget)
	b.Family("dynagg_fleet_tasks", "gauge", "Registered tasks.")
	b.Int("dynagg_fleet_tasks", st.TaskCount)
	b.Family("dynagg_fleet_tasks_paused", "gauge", "Paused tasks.")
	b.Int("dynagg_fleet_tasks_paused", st.PausedCount)
	b.Family("dynagg_fleet_pooled_clients", "gauge", "Distinct pooled remote clients.")
	b.Int("dynagg_fleet_pooled_clients", st.PooledClients)
	b.Family("dynagg_fleet_queries_total", "counter", "Queries issued by this process across all tasks.")
	b.Int("dynagg_fleet_queries_total", st.QueriesTotal)
	b.Family("dynagg_fleet_wasted_queries_total", "counter", "Speculatively issued queries never applied, across all tasks.")
	b.Int("dynagg_fleet_wasted_queries_total", st.WastedTotal)
	b.Family("dynagg_fleet_rounds_total", "counter", "Task rounds completed by this process.")
	b.Int("dynagg_fleet_rounds_total", st.RoundsTotal)
	b.Family("dynagg_fleet_tick_seconds", "histogram", "Whole-tick wall time: churn hooks plus every stepped task.")
	tick := m.tickHist.Snapshot()
	b.Histogram("dynagg_fleet_tick_seconds", obs.Bounds(), tick.Counts, tick.SumSeconds)
	b.Family("dynagg_fleet_task_round_seconds", "histogram", "Per-round wall time per task (step + checkpoint).")
	lats := m.taskRoundLatencies()
	for _, id := range metrics.SortedKeys(lats) {
		s := lats[id]
		b.Histogram("dynagg_fleet_task_round_seconds", obs.Bounds(), s.Counts, s.SumSeconds, "task", id)
	}

	b.Family("dynagg_fleet_task_round", "gauge", "Estimator round per task (lifetime).")
	for _, t := range st.Tasks {
		b.Int("dynagg_fleet_task_round", t.View.Round, "task", t.ID)
	}
	b.Family("dynagg_fleet_task_queries_total", "counter", "Queries issued per task by this process.")
	for _, t := range st.Tasks {
		b.Int("dynagg_fleet_task_queries_total", t.View.QueriesTotal, "task", t.ID)
	}
	b.Family("dynagg_fleet_task_wasted_queries_total", "counter", "Speculative waste per task (estimator lifetime).")
	for _, t := range st.Tasks {
		b.Int("dynagg_fleet_task_wasted_queries_total", t.View.Wasted, "task", t.ID)
	}
	b.Family("dynagg_fleet_task_budget_granted", "gauge", "Budget granted at the task's last scheduled tick.")
	for _, t := range st.Tasks {
		b.Int("dynagg_fleet_task_budget_granted", t.GrantedLast, "task", t.ID)
	}
	b.Family("dynagg_fleet_task_estimate", "gauge", "Current estimate per task and aggregate.")
	for _, t := range st.Tasks {
		for _, e := range t.View.Estimates {
			if e.OK {
				b.Value("dynagg_fleet_task_estimate", e.Value, "task", t.ID, "aggregate", e.Aggregate)
			}
		}
	}

	// Answer-cache counters per local target (remote targets have no
	// hook — their cache is scraped on the serving side). Target names
	// are emitted in sorted order so scrapes are diffable.
	names := make([]string, 0, len(m.cfg.Targets))
	for name, tgt := range m.cfg.Targets {
		if tgt.AnswerCacheStats != nil {
			names = append(names, name)
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		b.Family("dynagg_fleet_target_answer_cache_hits_total", "counter", "Answer-cache hits per local target interface.")
		for _, name := range names {
			b.Value("dynagg_fleet_target_answer_cache_hits_total", float64(m.cfg.Targets[name].AnswerCacheStats().Hits), "target", name)
		}
		b.Family("dynagg_fleet_target_answer_cache_misses_total", "counter", "Answer-cache misses (engine executions) per local target interface.")
		for _, name := range names {
			b.Value("dynagg_fleet_target_answer_cache_misses_total", float64(m.cfg.Targets[name].AnswerCacheStats().Misses), "target", name)
		}
		b.Family("dynagg_fleet_target_answer_cache_collapsed_total", "counter", "Singleflight-collapsed queries per local target interface.")
		for _, name := range names {
			b.Value("dynagg_fleet_target_answer_cache_collapsed_total", float64(m.cfg.Targets[name].AnswerCacheStats().Collapsed), "target", name)
		}
	}
	w.Header().Set("Content-Type", metrics.ContentType)
	_, _ = b.WriteTo(w)
}
