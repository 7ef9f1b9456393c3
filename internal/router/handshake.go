package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"github.com/dynagg/dynagg/internal/httpapi"
)

// The fleet epoch handshake: two-phase publication driven from the
// router.
//
//	probe    GET  /v1/shard/epoch on every shard — health, current seq,
//	         leftover freezes (best-effort aborted before proceeding)
//	freeze   POST /v1/shard/freeze on every shard; any failure aborts
//	         the fleet and the handshake fails
//	publish  POST /v1/shard/publish {"seq":next} on every shard; any
//	         failure aborts the fleet — shards where the publish already
//	         landed roll back to the superseded epoch, shards still
//	         pending discard the freeze — and the handshake fails
//
// next is max(pinned seq, every shard's current seq) + 1, so a router
// restart (pinned seq lost) can never hand out a stale sequence: the
// shards themselves remember how far the fleet got.
//
// Handshake holds the router's epoch pin for write, so no query fan-out
// straddles the flip; on success the pin moves to next, every
// connection's mismatch flag clears, and per-key budgets reset (fleet
// epochs are the router's rounds).

// adminURL joins a shard base with an admin route.
func adminURL(base, route string) string {
	return strings.TrimRight(base, "/") + route
}

// adminPost POSTs an admin route, decoding the error envelope on
// non-200.
func (rt *Router) adminPost(ctx context.Context, base, route string, body any, out any) error {
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, adminURL(base, route), rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.admin.Do(req)
	if err != nil {
		return err
	}
	defer httpapi.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		if e, ok := httpapi.DecodeError(resp.Body); ok {
			return fmt.Errorf("%s: %s: %w", route, resp.Status, &e)
		}
		return fmt.Errorf("%s: %s", route, resp.Status)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// adminEpoch probes one shard's /v1/shard/epoch.
func (rt *Router) adminEpoch(ctx context.Context, base string) (wireShardEpoch, error) {
	var out wireShardEpoch
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, adminURL(base, "/v1/shard/epoch"), nil)
	if err != nil {
		return out, err
	}
	resp, err := rt.admin.Do(req)
	if err != nil {
		return out, err
	}
	defer httpapi.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("/v1/shard/epoch: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// abortFleet fires the abort at every shard, best-effort: shards where
// publish(seq) landed roll back, shards still frozen discard the
// pending set, shards already clean no-op.
func (rt *Router) abortFleet(ctx context.Context, seq uint64) {
	for _, sc := range rt.conns {
		_ = rt.adminPost(ctx, sc.base, "/v1/shard/publish", wirePublish{Seq: seq, Abort: true}, nil)
	}
}

// Handshake drives one two-phase fleet epoch publication and, on
// success, pins the new sequence for serving. On any failure the fleet
// is aborted back to its prior epoch everywhere and the previously
// pinned epoch (if any) keeps serving. The caller must have shard-side
// mutators quiescent in the sense of ShardAdmin.WithMutators — the
// freeze itself enforces this per shard by taking the mutator lock.
func (rt *Router) Handshake(ctx context.Context) (uint64, error) {
	rt.pinMu.Lock()
	defer rt.pinMu.Unlock()
	rt.handshakes.Add(1)

	// Probe: every shard must be reachable, and a leftover freeze from a
	// handshake that died mid-flight is discarded before we start ours.
	next := rt.seq.Load()
	for i, sc := range rt.conns {
		ep, err := rt.adminEpoch(ctx, sc.base)
		if err != nil {
			sc.healthy.Store(false)
			return 0, fmt.Errorf("router: handshake probe: shard %d (%s): %w", i, sc.base, err)
		}
		sc.healthy.Store(true)
		if ep.Frozen {
			if err := rt.adminPost(ctx, sc.base, "/v1/shard/publish", wirePublish{Seq: 0, Abort: true}, nil); err != nil {
				return 0, fmt.Errorf("router: handshake stale-freeze abort: shard %d (%s): %w", i, sc.base, err)
			}
		}
		if ep.Seq > next {
			next = ep.Seq
		}
	}
	next++

	// Freeze: all shards snapshot together. Any failure leaves some
	// shards frozen, so abort everywhere before reporting it.
	for i, sc := range rt.conns {
		if err := rt.adminPost(ctx, sc.base, "/v1/shard/freeze", nil, nil); err != nil {
			sc.healthy.Store(false)
			rt.abortFleet(ctx, 0)
			return 0, fmt.Errorf("router: handshake freeze: shard %d (%s): %w", i, sc.base, err)
		}
	}

	// Publish: all shards swap the frozen set in under the new sequence.
	// Any failure rolls the fleet back — including the shards where this
	// publish already landed.
	for i, sc := range rt.conns {
		var out wirePublished
		if err := rt.adminPost(ctx, sc.base, "/v1/shard/publish", wirePublish{Seq: next}, &out); err != nil {
			sc.healthy.Store(false)
			rt.abortFleet(ctx, next)
			return 0, fmt.Errorf("router: handshake publish: shard %d (%s): %w", i, sc.base, err)
		}
	}

	rt.seq.Store(next)
	for _, sc := range rt.conns {
		sc.lastSeq.Store(next)
		sc.mismatch.Store(false)
		sc.healthy.Store(true)
	}
	rt.h.ResetBudgets()
	return next, nil
}

// ProbeReport summarizes one health sweep over the fleet.
type ProbeReport struct {
	Healthy     int // reachable shards serving the pinned epoch
	Unreachable int
	Mismatched  int // reachable but serving a different epoch (restarted)
}

// NeedsHandshake reports whether the fleet cannot serve coherently
// without a new handshake.
func (p ProbeReport) NeedsHandshake() bool { return p.Mismatched > 0 }

// ProbeOnce sweeps every shard's /v1/shard/epoch, refreshing health and
// epoch-mismatch state. A shard found serving the pinned epoch again
// (e.g. transient network trouble healed) has its mismatch flag cleared;
// a shard on a different epoch (restarted) keeps or gains it, and the
// report tells the caller to re-handshake.
func (rt *Router) ProbeOnce(ctx context.Context) ProbeReport {
	var rep ProbeReport
	pinned := rt.seq.Load()
	for _, sc := range rt.conns {
		ep, err := rt.adminEpoch(ctx, sc.base)
		if err != nil {
			sc.healthy.Store(false)
			rep.Unreachable++
			continue
		}
		sc.healthy.Store(true)
		sc.lastSeq.Store(ep.Seq)
		if pinned != 0 && ep.Seq != pinned {
			sc.mismatch.Store(true)
			rep.Mismatched++
			continue
		}
		sc.mismatch.Store(false)
		rep.Healthy++
	}
	return rep
}
