package router

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/dynagg/dynagg/internal/httpapi"
	"github.com/dynagg/dynagg/internal/obs"
	"github.com/dynagg/dynagg/webiface"
)

// debugBody mirrors the /v1/debug/requests JSON shape.
type debugBody struct {
	SlowThresholdMs float64             `json:"slow_threshold_ms"`
	Records         []obs.RequestRecord `json:"records"`
}

func getDebugRequests(t *testing.T, base string) debugBody {
	t.Helper()
	status, body := fetch(t, http.MethodGet, base+"/v1/debug/requests", "", "")
	if status != http.StatusOK {
		t.Fatalf("debug requests status %d: %s", status, body)
	}
	var out debugBody
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("debug requests body not JSON: %v (%s)", err, body)
	}
	return out
}

// TestTracePropagation: a trace ID supplied to the router is echoed on
// the response, forwarded to every shard daemon (observable in each
// shard's own debug ring), and recorded in the router's ring with
// per-shard timings and the pinned epoch.
func TestTracePropagation(t *testing.T) {
	f := newFleet(t, 3, 411, 300)
	for _, h := range f.handlers {
		h.SetRequestLog(64, 0) // record every request, not just slow ones
	}
	rt, srv := dialRouter(t, f, Options{DebugRequests: 64, SlowRequest: -1})
	f.round(rt)

	const trace = "cafef00d1badd00d"
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/search?where=0:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != trace {
		t.Fatalf("router echoed trace %q, want %q", got, trace)
	}

	// Every shard daemon saw the routed request under the same trace.
	for i, base := range f.bases() {
		ring := getDebugRequests(t, base)
		found := false
		for _, rec := range ring.Records {
			if rec.Trace == trace {
				found = true
			}
		}
		if !found {
			t.Errorf("shard %d debug ring has no record with trace %q: %+v", i, trace, ring.Records)
		}
	}

	// The router's own ring carries the record with shard timings and
	// the pinned epoch.
	ring := getDebugRequests(t, srv.URL)
	var rec *obs.RequestRecord
	for i := range ring.Records {
		if ring.Records[i].Trace == trace {
			rec = &ring.Records[i]
		}
	}
	if rec == nil {
		t.Fatalf("router debug ring has no record with trace %q", trace)
	}
	if rec.Route != "search" || rec.Status != http.StatusOK || rec.Outcome != "miss" {
		t.Errorf("record = %+v", rec)
	}
	if rec.Epoch != rt.Seq() {
		t.Errorf("record epoch %d, want pinned %d", rec.Epoch, rt.Seq())
	}
	if len(rec.Shards) != f.ref.NumShards() {
		t.Fatalf("record has %d shard timings, want %d", len(rec.Shards), f.ref.NumShards())
	}
	for i, st := range rec.Shards {
		if st.Shard != i || st.DurationMs < 0 || st.Error != "" {
			t.Errorf("shard timing %d = %+v", i, st)
		}
	}
}

// TestTraceMintedAndPropagated: absent a caller trace the router mints
// one, echoes it, and forwards it to every shard, whose ring records it.
func TestTraceMintedAndPropagated(t *testing.T) {
	f := newFleet(t, 2, 412, 200)
	for _, h := range f.handlers {
		h.SetRequestLog(64, 0)
	}
	rt, srv := dialRouter(t, f, Options{DebugRequests: 64, SlowRequest: -1})
	f.round(rt)

	resp, err := http.Get(srv.URL + "/v1/search?where=0:1&where=1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	minted := resp.Header.Get(obs.TraceHeader)
	if len(minted) != 16 {
		t.Fatalf("minted trace %q, want 16 hex chars", minted)
	}

	for i, base := range f.bases() {
		ring := getDebugRequests(t, base)
		found := false
		for _, rec := range ring.Records {
			if rec.Trace == minted {
				found = true
			}
		}
		if !found {
			t.Errorf("shard %d never saw minted trace %q", i, minted)
		}
	}
	ring := getDebugRequests(t, srv.URL)
	if len(ring.Records) == 0 || ring.Records[0].Trace != minted || ring.Records[0].Route != "search" {
		t.Fatalf("router ring = %+v", ring.Records)
	}
}

// TestFailedRequestRecord: a GET that fails with the unavailable
// envelope lands in the router's ring under the caller's trace, with
// outcome error, the fan-out error as detail and one timing per shard,
// the failing shard's carrying its error.
func TestFailedRequestRecord(t *testing.T) {
	injectors := make(map[int]*faultInjector)
	f := newFleet(t, 3, 414, 200, func(i int, h http.Handler) http.Handler {
		fi := &faultInjector{next: h}
		injectors[i] = fi
		return fi
	})
	rt, srv := dialRouter(t, f, Options{Client: webiface.ClientOptions{Retries: 1, RequestTimeout: 2 * time.Second}})
	f.round(rt)
	const victim = 1
	injectors[victim].set(func(fi *faultInjector) { fi.alwaysFail = true })

	// send issues one request and returns the trace the router echoed
	// and the message of the 503 envelope it answered.
	send := func(req *http.Request) (trace, message string) {
		t.Helper()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var env struct{ Error httpapi.Error }
		if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(body, &env) != nil || env.Error.Code != httpapi.CodeUnavailable {
			t.Fatalf("%s %s: %d %q, want 503 unavailable envelope", req.Method, req.URL, resp.StatusCode, body)
		}
		return resp.Header.Get(obs.TraceHeader), env.Error.Message
	}

	const callerTrace = "feedface0ddba11d"
	get, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/search?where=0:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	get.Header.Set(obs.TraceHeader, callerTrace)
	getTrace, getMsg := send(get)
	if getTrace != callerTrace {
		t.Fatalf("router echoed trace %q, want the caller's %q", getTrace, callerTrace)
	}

	ring := getDebugRequests(t, srv.URL)
	var rec *obs.RequestRecord
	for i := range ring.Records {
		if ring.Records[i].Trace == getTrace {
			rec = &ring.Records[i]
		}
	}
	if rec == nil {
		t.Fatalf("router ring has no record with trace %q: %+v", getTrace, ring.Records)
	}
	if rec.Route != "search" || rec.Status != http.StatusServiceUnavailable || rec.Outcome != "error" {
		t.Errorf("record = %+v, want route search, status 503, outcome error", rec)
	}
	if rec.Detail == "" || rec.Detail != getMsg {
		t.Errorf("record detail %q, want the fan-out error %q", rec.Detail, getMsg)
	}
	if len(rec.Shards) != len(f.srvs) {
		t.Fatalf("record has %d shard timings, want %d", len(rec.Shards), len(f.srvs))
	}
	for i, st := range rec.Shards {
		if failed := strings.Contains(st.Error, "injected fault"); st.Shard != i || failed != (i == victim) {
			t.Errorf("shard timing %d = %+v, want an error on shard %d only", i, st, victim)
		}
	}
}

// TestRouterMetricsHistograms: after traffic the router exports latency
// histogram families with consistent bucket counts.
func TestRouterMetricsHistograms(t *testing.T) {
	f := newFleet(t, 2, 413, 200)
	rt, srv := dialRouter(t, f, Options{})
	f.round(rt)
	for i := 0; i < 3; i++ {
		if status, body := fetch(t, http.MethodGet, srv.URL+"/v1/search?where=0:0", "", ""); status != http.StatusOK {
			t.Fatalf("search status %d: %s", status, body)
		}
	}
	status, body := fetch(t, http.MethodGet, srv.URL+"/v1/metrics", "", "")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	for _, want := range []string{
		`dynagg_serve_request_seconds_count{route="search",outcome="miss"} 3`,
		`dynagg_serve_request_seconds_bucket{route="search",outcome="miss",le="+Inf"} 3`,
		`dynagg_router_merge_seconds_count 3`,
		`dynagg_router_shard_request_seconds_bucket{shard="0",le="+Inf"} 3`,
		`dynagg_router_shard_request_seconds_bucket{shard="1",le="+Inf"} 3`,
		"# TYPE dynagg_serve_request_seconds histogram",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
}
