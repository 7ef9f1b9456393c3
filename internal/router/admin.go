// Package router turns a fleet of shard-mode dynagg-serve processes into
// one logical hidden database behind the full /v1/ wire surface.
//
// It has two halves, one for each side of the process boundary:
//
//   - ShardAdmin wraps a shard daemon's serving handler with the epoch
//     admin wire (/v1/shard/freeze, /v1/shard/publish, /v1/shard/epoch)
//     and tags every serving response with the epoch it answered from.
//   - Router owns webiface.Client connections to N shard daemons and
//     drives the fleet-wide two-phase epoch handshake. It is a
//     webiface.Backend whose searches fan out to every shard and merge
//     the per-shard top-k partials with hiddendb.MergePartials (the
//     top-k fold of the in-process engine), served through the same
//     webiface.Handler as a single process. Over shards with disjoint
//     tuple IDs, responses are byte-identical to a single process
//     serving the union of the shards (router_test.go pins this at 1, 4
//     and 16 shards under churn). A fan-out that misses any shard, or
//     whose merge meets one ID twice, is refused with a 503, never
//     answered in part.
//
// docs/deploy.md describes the topology, the handshake and the failure
// semantics in operator terms.
package router

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/httpapi"
)

// EpochHeader is the response header a ShardAdmin sets on every serving
// response: the epoch sequence number the shard answered from. The
// router watches it (webiface ClientOptions.ObserveResponse) to detect a
// shard that restarted and is serving a stale epoch — its answers are
// rejected until a new handshake re-aligns the fleet.
const EpochHeader = "X-Dynagg-Epoch"

// AdminOptions tunes a ShardAdmin.
type AdminOptions struct {
	// FreezeTimeout auto-aborts a freeze that no publish or abort has
	// resolved in time, so a router that died mid-handshake cannot leave
	// the shard's mutators blocked forever (0 = wait indefinitely).
	FreezeTimeout time.Duration
}

// ShardAdmin wraps one shard daemon's serving handler with the epoch
// admin wire the router drives:
//
//	POST /v1/shard/freeze   → freeze the current state into a pending
//	                          epoch (409 conflict when already frozen)
//	POST /v1/shard/publish  → {"seq":N} publish the pending epoch under
//	                          the router-assigned fleet sequence (409 on
//	                          stale seq or nothing pending), or
//	                          {"seq":N,"abort":true} abort: discard any
//	                          pending freeze and roll back a publish of
//	                          seq N that already landed
//	GET  /v1/shard/epoch    → {"seq":..,"frozen":..,"size":..,
//	                          "api_version":"v1"} health/epoch probe
//
// Every other request is delegated to the serving handler with the
// EpochHeader set, so the router can verify which epoch answered.
//
// The admin also owns shard-local mutator quiescence: churn must run
// inside WithMutators, which blocks while an epoch is frozen — the
// cross-process equivalent of the single-process rule that AdvanceEpoch
// is called with mutators quiescent.
type ShardAdmin struct {
	ss      *hiddendb.ShardedStore
	serving http.Handler
	opts    AdminOptions

	mu        sync.Mutex
	cond      *sync.Cond
	frozen    bool
	freezeGen uint64 // bumped on every freeze resolution; guards the timeout
}

// NewShardAdmin wraps a serving handler (a webiface.Handler over a
// ShardedIface on ss) with the admin wire.
func NewShardAdmin(ss *hiddendb.ShardedStore, serving http.Handler, opts AdminOptions) *ShardAdmin {
	a := &ShardAdmin{ss: ss, serving: serving, opts: opts}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// WithMutators runs fn while no epoch freeze is pending, blocking churn
// for the duration of a handshake's freeze window. All shard mutations
// must go through it; the freeze handler takes the same lock, so a
// freeze waits for an in-flight mutation and a mutation waits for the
// frozen epoch to be published or aborted.
func (a *ShardAdmin) WithMutators(fn func() error) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.frozen {
		a.cond.Wait()
	}
	return fn()
}

// wireShardEpoch is the GET /v1/shard/epoch response body.
type wireShardEpoch struct {
	Seq        uint64 `json:"seq"`
	Frozen     bool   `json:"frozen"`
	Size       int    `json:"size"`
	APIVersion string `json:"api_version"`
}

// wirePublish is the POST /v1/shard/publish request body.
type wirePublish struct {
	Seq   uint64 `json:"seq"`
	Abort bool   `json:"abort,omitempty"`
}

// wirePublished answers freeze, publish and abort requests.
type wirePublished struct {
	Seq        uint64 `json:"seq"`
	RolledBack bool   `json:"rolled_back,omitempty"`
}

// ServeHTTP routes the admin wire and delegates everything else to the
// serving handler with the epoch header attached.
func (a *ShardAdmin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/shard/freeze":
		if r.Method != http.MethodPost {
			httpapi.WriteError(w, http.StatusMethodNotAllowed, httpapi.CodeBadRequest, "freeze requires POST")
			return
		}
		a.serveFreeze(w)
	case "/v1/shard/publish":
		if r.Method != http.MethodPost {
			httpapi.WriteError(w, http.StatusMethodNotAllowed, httpapi.CodeBadRequest, "publish requires POST")
			return
		}
		a.servePublish(w, r)
	case "/v1/shard/epoch":
		a.serveEpoch(w)
	default:
		w.Header().Set(EpochHeader, strconv.FormatUint(a.ss.Epoch().Seq(), 10))
		a.serving.ServeHTTP(w, r)
	}
}

func (a *ShardAdmin) serveFreeze(w http.ResponseWriter) {
	a.mu.Lock()
	seq, err := a.ss.FreezeEpoch()
	if err != nil {
		a.mu.Unlock()
		httpapi.WriteError(w, http.StatusConflict, httpapi.CodeConflict, err.Error())
		return
	}
	a.frozen = true
	a.freezeGen++
	gen := a.freezeGen
	a.mu.Unlock()
	if a.opts.FreezeTimeout > 0 {
		time.AfterFunc(a.opts.FreezeTimeout, func() { a.abortStaleFreeze(gen) })
	}
	httpapi.WriteJSON(w, http.StatusOK, wirePublished{Seq: seq})
}

// abortStaleFreeze fires when a freeze's timeout expires: if that same
// freeze is still unresolved (gen matches), discard it and release the
// mutators — the coordinator evidently died mid-handshake.
func (a *ShardAdmin) abortStaleFreeze(gen uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.frozen || a.freezeGen != gen {
		return
	}
	a.ss.AbortEpoch(0)
	a.resolveFreezeLocked()
}

// resolveFreezeLocked marks the pending freeze resolved and wakes
// blocked mutators. Caller holds a.mu.
func (a *ShardAdmin) resolveFreezeLocked() {
	a.frozen = false
	a.freezeGen++
	a.cond.Broadcast()
}

func (a *ShardAdmin) servePublish(w http.ResponseWriter, r *http.Request) {
	var req wirePublish
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, "publish decode: "+err.Error())
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if req.Abort {
		rolledBack := a.ss.AbortEpoch(req.Seq)
		a.resolveFreezeLocked()
		httpapi.WriteJSON(w, http.StatusOK, wirePublished{Seq: a.ss.Epoch().Seq(), RolledBack: rolledBack})
		return
	}
	if req.Seq == 0 {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, "publish requires a nonzero seq")
		return
	}
	e, err := a.ss.PublishPending(req.Seq)
	if err != nil {
		// A stale seq keeps the pending set (and the mutator block) so the
		// coordinator's fleet-wide abort can clean up coherently; nothing
		// pending means there is no freeze to resolve either way.
		status := http.StatusConflict
		if !errors.Is(err, hiddendb.ErrStaleEpochSeq) && !errors.Is(err, hiddendb.ErrNoPendingEpoch) {
			status = http.StatusInternalServerError
		}
		code := httpapi.CodeConflict
		if status == http.StatusInternalServerError {
			code = httpapi.CodeInternal
		}
		httpapi.WriteError(w, status, code, err.Error())
		return
	}
	a.resolveFreezeLocked()
	httpapi.WriteJSON(w, http.StatusOK, wirePublished{Seq: e.Seq()})
}

func (a *ShardAdmin) serveEpoch(w http.ResponseWriter) {
	a.mu.Lock()
	frozen := a.frozen
	a.mu.Unlock()
	httpapi.WriteJSON(w, http.StatusOK, wireShardEpoch{
		Seq:        a.ss.Epoch().Seq(),
		Frozen:     frozen,
		Size:       a.ss.Size(),
		APIVersion: httpapi.Version,
	})
}
