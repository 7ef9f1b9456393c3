package tracking

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/workload"
)

// newLocalService wires a Service over a fresh simulated database with
// deterministic churn.
func newLocalService(t *testing.T, seed int64, ckpt string) (*Service, *workload.Env) {
	t.Helper()
	data := workload.AutosLikeN(seed, 10000, 10)
	env, err := workload.NewEnv(data, 9000, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 100, nil)
	svc, err := New(iface.Schema(),
		func(g int) Session { return iface.NewSession(g) },
		Config{
			Algorithm:      "REISSUE",
			Aggregates:     []*agg.Aggregate{agg.CountAll()},
			Budget:         300,
			Interval:       time.Millisecond,
			Seed:           seed + 7,
			Parallelism:    4,
			CheckpointPath: ckpt,
			PreRound: func(round int) error {
				if round == 1 {
					return nil
				}
				if err := env.InsertFromPool(100); err != nil {
					return err
				}
				return env.DeleteFraction(0.005)
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	return svc, env
}

func TestServiceStepPublishesEstimates(t *testing.T) {
	svc, env := newLocalService(t, 100, "")
	for i := 0; i < 3; i++ {
		if err := svc.StepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	v := svc.CurrentView()
	if v.Round != 3 || v.Steps != 3 {
		t.Fatalf("round=%d steps=%d", v.Round, v.Steps)
	}
	if v.UsedLast == 0 || v.UsedLast > 300 {
		t.Fatalf("used last round = %d", v.UsedLast)
	}
	if len(v.Estimates) != 1 || !v.Estimates[0].OK {
		t.Fatalf("estimates: %+v", v.Estimates)
	}
	truth := float64(env.Store.Size())
	if rel := math.Abs(v.Estimates[0].Value-truth) / truth; rel > 0.5 {
		t.Errorf("estimate rel err %.2f (est %.0f truth %.0f)", rel, v.Estimates[0].Value, truth)
	}
	if v.Estimates[0].Delta == nil {
		t.Error("no delta after 3 rounds")
	}
}

func TestServiceCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "track.ckpt")
	svc1, _ := newLocalService(t, 200, ckpt)
	for i := 0; i < 2; i++ {
		if err := svc1.StepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	before := svc1.CurrentView()

	// "Crash" and restart: a second service over the same checkpoint
	// resumes at the same round with the same drill-down pool.
	svc2, _ := newLocalService(t, 200, ckpt)
	if !svc2.Resumed() {
		t.Fatal("service did not resume from checkpoint")
	}
	v := svc2.CurrentView()
	if v.Round != before.Round || v.Drills != before.Drills {
		t.Fatalf("resumed round=%d drills=%d, want %d/%d", v.Round, v.Drills, before.Round, before.Drills)
	}
	if !v.Estimates[0].OK || v.Estimates[0].Value != before.Estimates[0].Value {
		t.Fatalf("resumed estimate %+v vs %+v", v.Estimates[0], before.Estimates[0])
	}
	if err := svc2.StepOnce(); err != nil {
		t.Fatal(err)
	}
	if got := svc2.CurrentView().Round; got != before.Round+1 {
		t.Fatalf("round after resumed step = %d", got)
	}
}

// TestServiceRefusesCheckpointOfAnotherAlgorithm: a checkpoint resumes
// only under the algorithm that wrote it, where an empty Algorithm means
// RS. Resuming it under another name must fail and name both algorithms,
// not silently run the checkpoint's estimator.
func TestServiceRefusesCheckpointOfAnotherAlgorithm(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "track.ckpt")
	svc, _ := newLocalService(t, 250, ckpt) // REISSUE
	if err := svc.StepOnce(); err != nil {
		t.Fatal(err)
	}
	data := workload.AutosLikeN(250, 10000, 10)
	env, err := workload.NewEnv(data, 9000, 251)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 100, nil)
	for _, algo := range []string{"RS", ""} {
		svc2, err := New(iface.Schema(), func(g int) Session { return iface.NewSession(g) }, Config{
			Algorithm:      algo,
			Aggregates:     []*agg.Aggregate{agg.CountAll()},
			CheckpointPath: ckpt,
		})
		if err == nil {
			t.Fatalf("Algorithm %q resumed a REISSUE checkpoint (running %s)", algo, svc2.CurrentView().Algorithm)
		}
		if msg := err.Error(); !strings.Contains(msg, "REISSUE") || !strings.Contains(msg, "RS") {
			t.Errorf("Algorithm %q: error %q does not name both algorithms", algo, msg)
		}
	}
}

func TestServiceHTTPEndpoints(t *testing.T) {
	svc, _ := newLocalService(t, 300, "")
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Before any round: not ready.
	resp, err := srv.Client().Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("healthz before first round: %d", resp.StatusCode)
	}

	if err := svc.StepOnce(); err != nil {
		t.Fatal(err)
	}

	resp, err = srv.Client().Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		View
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Algorithm != "REISSUE" || status.Round != 1 || len(status.Estimates) != 1 {
		t.Fatalf("status: %+v", status)
	}

	resp, err = srv.Client().Get(srv.URL + "/v1/estimates")
	if err != nil {
		t.Fatal(err)
	}
	var ests []EstimateStatus
	if err := json.NewDecoder(resp.Body).Decode(&ests); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ests) != 1 || !ests[0].OK {
		t.Fatalf("estimates: %+v", ests)
	}

	resp, err = srv.Client().Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz after a round: %d", resp.StatusCode)
	}
}

func TestServiceRunMaxRoundsAndCancel(t *testing.T) {
	svc, _ := newLocalService(t, 400, "")
	svc.cfg.MaxRounds = 3
	if err := svc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := svc.CurrentView().Round; got != 3 {
		t.Fatalf("rounds after MaxRounds run: %d", got)
	}

	// Unbounded run ends promptly on cancellation.
	svc2, _ := newLocalService(t, 401, "")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc2.Run(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if svc2.CurrentView().Round < 1 {
		t.Fatal("no rounds completed before cancellation")
	}
}

func TestServiceValidation(t *testing.T) {
	data := workload.AutosLikeN(1, 2000, 8)
	env, err := workload.NewEnv(data, 1800, 2)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 50, nil)
	source := func(g int) Session { return iface.NewSession(g) }
	if _, err := New(nil, source, Config{Aggregates: []*agg.Aggregate{agg.CountAll()}}); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := New(iface.Schema(), source, Config{}); err == nil {
		t.Error("no aggregates accepted")
	}
	if _, err := New(iface.Schema(), source, Config{
		Algorithm:  "MAGIC",
		Aggregates: []*agg.Aggregate{agg.CountAll()},
	}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	svc, err := New(iface.Schema(), source, Config{Aggregates: []*agg.Aggregate{agg.CountAll()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Run(context.Background()); err == nil {
		t.Error("Run without Interval accepted")
	}
}
