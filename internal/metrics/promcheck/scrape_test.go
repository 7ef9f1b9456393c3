package promcheck_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dynagg/dynagg/internal/fleet"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/metrics"
	"github.com/dynagg/dynagg/internal/metrics/promcheck"
	"github.com/dynagg/dynagg/internal/router"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/tracking"
	"github.com/dynagg/dynagg/internal/workload"
	"github.com/dynagg/dynagg/webiface"
)

// These tests scrape the LIVE /v1/metrics of each of the three daemons'
// handlers (serve, router, fleet) and hold the output to the strict
// exposition validator — the CI guard that no instrumentation change
// ships an unparseable or structurally broken document.

// scrape GETs path from srv, requiring a 200 and the exposition
// content type, and returns the body.
func scrape(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("GET %s: content type %q, want %q", path, ct, metrics.ContentType)
	}
	return string(body)
}

// requireHistogram asserts the document declares family as a histogram
// and carries at least one complete bucket series for it.
func requireHistogram(t *testing.T, doc, family string) {
	t.Helper()
	if !strings.Contains(doc, "# TYPE "+family+" histogram") {
		t.Errorf("no histogram TYPE line for %s", family)
	}
	if !strings.Contains(doc, family+`_bucket{`) {
		t.Errorf("no bucket samples for %s", family)
	}
	if !strings.Contains(doc, `le="+Inf"`) {
		t.Errorf("no +Inf bucket anywhere in document")
	}
}

func checkDoc(t *testing.T, doc string, histograms ...string) {
	t.Helper()
	if err := promcheck.Validate(doc); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, doc)
	}
	for _, fam := range histograms {
		requireHistogram(t, doc, fam)
	}
}

func TestServeExposition(t *testing.T) {
	data := workload.AutosLikeN(41, 2000, 10)
	env, err := workload.NewEnv(data, 1800, 42)
	if err != nil {
		t.Fatal(err)
	}
	h := webiface.NewHandler(hiddendb.NewIface(env.Store, 50, nil))
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Drive the hot path so the route histograms hold real samples:
	// the repeat is a warm cache hit, exercising both outcome labels.
	for i := 0; i < 3; i++ {
		resp, err := srv.Client().Get(srv.URL + "/v1/search?where=0:0")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d", resp.StatusCode)
		}
	}
	doc := scrape(t, srv, "/v1/metrics")
	checkDoc(t, doc, "dynagg_serve_request_seconds")
	if !strings.Contains(doc, `dynagg_serve_request_seconds_count{route="search",outcome="hit"}`) {
		t.Error("no hit-labeled search latency series after a warm repeat")
	}
}

func TestFleetExposition(t *testing.T) {
	data := workload.AutosLikeN(45, 2000, 8)
	env, err := workload.NewEnv(data, 1800, 46)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 100, nil)
	mgr, err := fleet.New(fleet.Config{
		TickBudget: 200,
		Dir:        t.TempDir(),
		Targets: map[string]fleet.Target{
			"db": {
				Schema: iface.Schema(),
				Source: func(g int) tracking.Session { return iface.NewSession(g) },
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Add(fleet.TaskSpec{ID: "count", Target: "db", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	mgr.TickOnce()
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	doc := scrape(t, srv, "/v1/metrics")
	checkDoc(t, doc, "dynagg_fleet_task_round_seconds")
	if !strings.Contains(doc, "# TYPE dynagg_fleet_tick_seconds histogram") {
		t.Error("no tick-latency histogram family")
	}
	if !strings.Contains(doc, `dynagg_fleet_task_round_seconds_bucket{task="count",le=`) {
		t.Error("no per-task round buckets for the registered task")
	}
}

func TestRouterExposition(t *testing.T) {
	attrs := make([]schema.Attr, 2)
	for i := range attrs {
		dom := make([]string, 3)
		for v := range dom {
			dom[v] = fmt.Sprintf("v%d", v)
		}
		attrs[i] = schema.Attr{Name: fmt.Sprintf("A%d", i+1), Domain: dom}
	}
	sch := schema.New(attrs)

	var bases []string
	for i := 0; i < 2; i++ {
		ss := hiddendb.NewShardedStore(sch, 1)
		h := webiface.NewHandler(hiddendb.NewShardedIface(ss, 25, nil))
		admin := router.NewShardAdmin(ss, h, router.AdminOptions{})
		shardSrv := httptest.NewServer(admin)
		defer shardSrv.Close()
		bases = append(bases, shardSrv.URL)
	}
	rt, err := router.New(bases, router.Options{
		Client: webiface.ClientOptions{RequestTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Handshake(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt)
	defer srv.Close()

	for i := 0; i < 2; i++ {
		resp, err := srv.Client().Get(srv.URL + "/v1/search?where=0:0")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed search status %d", resp.StatusCode)
		}
	}
	doc := scrape(t, srv, "/v1/metrics")
	checkDoc(t, doc,
		"dynagg_serve_request_seconds",
		"dynagg_router_shard_request_seconds",
	)
	if !strings.Contains(doc, "# TYPE dynagg_router_merge_seconds histogram") {
		t.Error("no merge-latency histogram family")
	}
	if !strings.Contains(doc, `dynagg_serve_request_seconds_count{route="search",outcome="miss"} 2`) {
		t.Error("router request histogram does not count the two searches")
	}
}
