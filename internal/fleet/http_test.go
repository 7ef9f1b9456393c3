package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func controlPlane(t *testing.T) (*Manager, *httptest.Server) {
	t.Helper()
	mgr := fleetManager(t, []fixture{{id: "a", seed: 1234}}, 200, "")
	srv := httptest.NewServer(mgr.Handler())
	t.Cleanup(srv.Close)
	return mgr, srv
}

func do(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestControlPlaneLifecycle(t *testing.T) {
	mgr, srv := controlPlane(t)

	// Before any tick: not ready.
	resp, _ := do(t, "GET", srv.URL+"/v1/healthz", nil)
	if resp.StatusCode != 503 {
		t.Fatalf("healthz before first tick: %d", resp.StatusCode)
	}

	// Create a task over the wire.
	resp, raw := do(t, "POST", srv.URL+"/v1/tasks", TaskSpec{
		ID: "wire", Target: "db-a", Algorithm: "REISSUE", Seed: 99,
		Aggregates: []AggregateSpec{{Kind: "AVG", AuxField: 0, Name: "AVG(price)"}},
	})
	if resp.StatusCode != 201 {
		t.Fatalf("POST /tasks: %d %s", resp.StatusCode, raw)
	}
	resp, _ = do(t, "POST", srv.URL+"/v1/tasks", TaskSpec{ID: "wire", Target: "db-a"})
	if resp.StatusCode != 409 {
		t.Fatalf("duplicate POST: %d, want 409", resp.StatusCode)
	}
	resp, raw = do(t, "POST", srv.URL+"/v1/tasks", TaskSpec{ID: "bad id!", Target: "db-a"})
	if resp.StatusCode != 400 {
		t.Fatalf("invalid POST: %d %s, want 400", resp.StatusCode, raw)
	}

	mgr.TickOnce()

	resp, raw = do(t, "GET", srv.URL+"/v1/status", nil)
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("status decode: %v (%s)", err, raw)
	}
	if resp.StatusCode != 200 || st.Ticks != 1 || st.TaskCount != 1 || len(st.Tasks) != 1 {
		t.Fatalf("status: %d %+v", resp.StatusCode, st)
	}
	if st.Tasks[0].View.Round != 1 || st.QueriesTotal == 0 {
		t.Fatalf("task did not advance: %+v", st.Tasks[0])
	}

	resp, raw = do(t, "GET", srv.URL+"/v1/tasks/wire/estimates", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(raw), "AVG(price)") {
		t.Fatalf("estimates: %d %s", resp.StatusCode, raw)
	}

	resp, _ = do(t, "POST", srv.URL+"/v1/tasks/wire/pause", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("pause: %d", resp.StatusCode)
	}
	mgr.TickOnce()
	resp, raw = do(t, "GET", srv.URL+"/v1/tasks/wire", nil)
	var ts TaskStatus
	if err := json.Unmarshal(raw, &ts); err != nil {
		t.Fatal(err)
	}
	if !ts.Paused || ts.View.Round != 1 {
		t.Fatalf("paused task stepped: %+v", ts)
	}
	resp, _ = do(t, "POST", srv.URL+"/v1/tasks/wire/resume", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("resume: %d", resp.StatusCode)
	}

	resp, raw = do(t, "GET", srv.URL+"/v1/metrics", nil)
	body := string(raw)
	if resp.StatusCode != 200 ||
		!strings.Contains(body, "dynagg_fleet_ticks_total 2") ||
		!strings.Contains(body, `dynagg_fleet_task_round{task="wire"}`) ||
		!strings.Contains(body, "dynagg_fleet_wasted_queries_total") {
		t.Fatalf("metrics:\n%s", body)
	}

	resp, _ = do(t, "DELETE", srv.URL+"/v1/tasks/wire", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", srv.URL+"/v1/tasks/wire", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("deleted task still served: %d", resp.StatusCode)
	}
	resp, _ = do(t, "DELETE", srv.URL+"/v1/tasks/wire", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("double delete: %d", resp.StatusCode)
	}

	resp, _ = do(t, "GET", srv.URL+"/v1/healthz", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("healthz after ticks: %d", resp.StatusCode)
	}
	if mgr.Status().TaskCount != 0 {
		t.Fatalf("unexpected task table: %+v", mgr.Status().Tasks)
	}
}

// TestControlPlaneReAddOtherAlgorithm: a task removed and re-added under
// its old ID resumes its checkpoint only under the algorithm that wrote
// it. Another algorithm is refused with a 400 naming both, and the
// original one still resumes.
func TestControlPlaneReAddOtherAlgorithm(t *testing.T) {
	mgr := fleetManager(t, []fixture{{id: "a", seed: 1234}}, 200, t.TempDir())
	srv := httptest.NewServer(mgr.Handler())
	t.Cleanup(srv.Close)
	spec := TaskSpec{ID: "t", Target: "db-a", Algorithm: "REISSUE", Seed: 5}
	if err := mgr.Add(spec); err != nil {
		t.Fatal(err)
	}
	mgr.TickOnce()
	if err := mgr.Remove("t"); err != nil {
		t.Fatal(err)
	}

	other := spec
	other.Algorithm = "RS"
	resp, raw := do(t, "POST", srv.URL+"/v1/tasks", other)
	if resp.StatusCode != 400 || !strings.Contains(string(raw), "REISSUE") || !strings.Contains(string(raw), "RS") {
		t.Fatalf("re-add under RS: %d %s, want 400 naming both algorithms", resp.StatusCode, raw)
	}
	if n := mgr.Status().TaskCount; n != 0 {
		t.Fatalf("refused re-add registered %d tasks", n)
	}

	resp, raw = do(t, "POST", srv.URL+"/v1/tasks", spec)
	if resp.StatusCode != 201 {
		t.Fatalf("re-add under REISSUE: %d %s", resp.StatusCode, raw)
	}
	var ts TaskStatus
	if err := json.Unmarshal(raw, &ts); err != nil {
		t.Fatal(err)
	}
	if v := ts.View; v.Algorithm != "REISSUE" || !v.Resumed || v.Round != 1 {
		t.Fatalf("re-added task: algorithm %s resumed %v round %d, want REISSUE resumed at round 1",
			v.Algorithm, v.Resumed, v.Round)
	}
}

// TestControlPlaneConcurrentWithScheduler hammers the control plane —
// readers on every endpoint plus add/pause/resume/delete writers — while
// the scheduler loop advances ticks. Run under -race (make race) this
// verifies the fleet ownership rules: scheduler owns stepping, control
// plane owns the task table, readers see immutable views.
func TestControlPlaneConcurrentWithScheduler(t *testing.T) {
	mgr, srv := controlPlane(t)
	for i := 0; i < 3; i++ {
		if err := mgr.Add(TaskSpec{ID: fmt.Sprintf("t%d", i), Target: "db-a", Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- mgr.Run(ctx)
	}()
	// /v1/healthz answers 503 until this process has finished a tick, so
	// start the readers only once one has; Ticks() would not do, as it
	// counts a tick from its start.
	for deadline := time.Now().Add(5 * time.Second); mgr.ProcessTicks() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("scheduler finished no tick")
		}
	}

	var wg sync.WaitGroup
	paths := []string{"/status", "/tasks", "/healthz", "/metrics", "/tasks/t0", "/tasks/t0/estimates"}
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch {
				case c == 0:
					// One writer churns the task table over the wire.
					id := fmt.Sprintf("churn%d", i)
					r, _ := do(t, "POST", srv.URL+"/v1/tasks", TaskSpec{ID: id, Target: "db-a"})
					if r.StatusCode != 201 {
						t.Errorf("POST %s: %d", id, r.StatusCode)
						return
					}
					do(t, "POST", srv.URL+"/v1/tasks/"+id+"/pause", nil)
					do(t, "POST", srv.URL+"/v1/tasks/"+id+"/resume", nil)
					do(t, "DELETE", srv.URL+"/v1/tasks/"+id, nil)
				default:
					resp, _ := do(t, "GET", srv.URL+"/v1"+paths[c%len(paths)], nil)
					if resp.StatusCode >= 500 {
						t.Errorf("GET %s: %d", paths[c%len(paths)], resp.StatusCode)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop after cancellation")
	}
	if mgr.Ticks() < 1 {
		t.Fatal("scheduler never ticked")
	}
}
