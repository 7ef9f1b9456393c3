package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/obs"
	"github.com/dynagg/dynagg/internal/router"
	"github.com/dynagg/dynagg/webiface"
)

// servingSystem is an HTTP serving stack on loopback listeners plus the
// one closed-loop client that drives it.
type servingSystem struct {
	base     string
	client   *http.Client
	servers  []*http.Server
	wg       sync.WaitGroup
	churn    func(b batch) (mutate, total time.Duration, err error)
	counters func() servingCounters

	tr    *tracer
	root  slot // the client's open request span
	slots []slot
}

type servingCounters struct {
	hits, misses, queries, fanouts, retries uint64
}

func (sys *servingSystem) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	sys.servers = append(sys.servers, srv)
	sys.wg.Add(1)
	go func() {
		defer sys.wg.Done()
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

func (sys *servingSystem) close() {
	sys.client.CloseIdleConnections()
	for _, srv := range sys.servers {
		_ = srv.Close()
	}
	sys.wg.Wait()
}

func newServingSystem(tr *tracer, slots int) *servingSystem {
	return &servingSystem{
		client: &http.Client{Transport: &http.Transport{DisableCompression: true}},
		tr:     tr,
		slots:  make([]slot, slots),
	}
}

// buildSingle is dynagg-serve's unsharded stack: webiface.Handler over a
// hiddendb.Iface.
func buildSingle(s *spec, in *serveInputs, tr *tracer) (*servingSystem, error) {
	st := hiddendb.NewStore(in.sch)
	if err := st.ApplyBatch(in.initial, nil); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	iface := hiddendb.NewIface(st, s.k, nil)
	sys := newServingSystem(tr, 1)
	var backend webiface.Backend = iface
	if tr != nil {
		backend = &tracedBackend{Backend: iface, t: tr, parent: &sys.slots[0]}
	}
	var h http.Handler = webiface.NewHandler(backend)
	if tr != nil {
		h = tracedHTTP(tr, layerHandler, &sys.root, &sys.slots[0], h)
	}
	base, err := sys.listen(h)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.base = base
	sys.churn = func(b batch) (time.Duration, time.Duration, error) {
		start := time.Now()
		err := st.ApplyBatch(b.ins, b.dels)
		d := time.Since(start)
		return d, d, err
	}
	sys.counters = func() servingCounters {
		cs := iface.CacheStats()
		return servingCounters{hits: cs.Hits, misses: cs.Misses, queries: iface.TotalQueries()}
	}
	return sys, nil
}

const routerShards = 2

// buildRouter is the dynagg-router topology: a router over shard daemons,
// each a ShardAdmin around webiface.Handler over a 1-shard store, as
// `dynagg-serve -shard-mode` runs it. Tuples go to shards by ShardFor.
func buildRouter(s *spec, in *serveInputs, tr *tracer) (*servingSystem, error) {
	part := hiddendb.NewShardedStore(in.sch, routerShards)
	split := func(b batch) [routerShards]batch {
		var out [routerShards]batch
		for _, t := range b.ins {
			i := part.ShardFor(t.ID)
			out[i].ins = append(out[i].ins, t)
		}
		for _, id := range b.dels {
			i := part.ShardFor(id)
			out[i].dels = append(out[i].dels, id)
		}
		return out
	}
	// slots: router, then per shard the admin and the handler span.
	sys := newServingSystem(tr, 1+2*routerShards)
	routerSlot := &sys.slots[0]
	stores := make([]*hiddendb.ShardedStore, routerShards)
	ifaces := make([]*hiddendb.ShardedIface, routerShards)
	admins := make([]*router.ShardAdmin, routerShards)
	var bases []string
	for i, p := range split(batch{ins: in.initial}) {
		ss := hiddendb.NewShardedStore(in.sch, 1)
		if err := ss.ApplyBatch(p.ins, nil); err != nil {
			sys.close()
			return nil, fmt.Errorf("load shard %d: %w", i, err)
		}
		sif := hiddendb.NewShardedIface(ss, s.k, nil)
		adminSlot, handlerSlot := &sys.slots[1+2*i], &sys.slots[2+2*i]
		var backend webiface.Backend = sif
		if tr != nil {
			backend = &tracedBackend{Backend: sif, t: tr, parent: handlerSlot}
		}
		var h http.Handler = webiface.NewHandler(backend)
		if tr != nil {
			h = tracedHTTP(tr, layerHandler, adminSlot, handlerSlot, h)
		}
		// No freeze timeout: its timer would keep every discarded set-up's
		// shard alive for the timeout and inflate heap_live_mb, and every
		// handshake here publishes what it froze.
		admin := router.NewShardAdmin(ss, h, router.AdminOptions{})
		var ah http.Handler = admin
		if tr != nil {
			ah = tracedHTTP(tr, layerShard, routerSlot, adminSlot, admin)
		}
		base, err := sys.listen(ah)
		if err != nil {
			sys.close()
			return nil, err
		}
		stores[i], ifaces[i], admins[i] = ss, sif, admin
		bases = append(bases, base)
	}
	rt, err := router.New(bases, router.Options{})
	if err != nil {
		sys.close()
		return nil, err
	}
	if _, err := rt.Handshake(context.Background()); err != nil {
		sys.close()
		return nil, err
	}
	var rh http.Handler = rt
	if tr != nil {
		rh = tracedHTTP(tr, layerRouter, &sys.root, routerSlot, rt)
	}
	if sys.base, err = sys.listen(rh); err != nil {
		sys.close()
		return nil, err
	}
	sys.churn = func(b batch) (time.Duration, time.Duration, error) {
		start := time.Now()
		var mutate time.Duration
		for i, p := range split(b) {
			err := admins[i].WithMutators(func() error {
				t0 := time.Now()
				err := stores[i].ApplyBatch(p.ins, p.dels)
				mutate += time.Since(t0)
				return err
			})
			if err != nil {
				return 0, 0, fmt.Errorf("shard %d: %w", i, err)
			}
		}
		_, err := rt.Handshake(context.Background())
		return mutate, time.Since(start), err
	}
	sys.counters = func() servingCounters {
		var c servingCounters
		for _, sif := range ifaces {
			cs := sif.CacheStats()
			c.hits += cs.Hits
			c.misses += cs.Misses
			c.queries += sif.TotalQueries()
		}
		c.fanouts = scrapeCounter(rt, "dynagg_router_fanouts_total")
		c.retries = rt.RetryCount()
		return c
	}
	return sys, nil
}

// scrapeCounter reads one unlabelled counter off a handler's /v1/metrics.
func scrapeCounter(h http.Handler, name string) uint64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return uint64(f)
		}
	}
	return 0
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodyDigest identifies a response body by length and CRC-32C.
func bodyDigest(b []byte) uint64 {
	return uint64(len(b))<<32 | uint64(crc32.Checksum(b, castagnoli))
}

// serveLog is what the client saw, request by request.
type serveLog struct {
	digest    []uint64 // body digest of every request, warm-up included
	ok        []bool   // 200 with a full body
	lat       []time.Duration
	bytes     int64 // timed response bytes
	mutate    []time.Duration
	churnTime []time.Duration
	churnErr  error
	churnAll  uint64 // bytes allocated by churn between timed requests
}

// request sends request i and reads the whole body into buf.
func (sys *servingSystem) request(in *serveInputs, i int, buf *bytes.Buffer) (time.Duration, bool) {
	req, err := http.NewRequest(http.MethodGet, sys.base+in.paths[in.seq[i]], nil)
	if err != nil {
		return 0, false
	}
	if sys.tr != nil {
		req.Header.Set(obs.TraceHeader, traceID(i))
	}
	buf.Reset()
	var id int32
	if sys.tr != nil {
		id = sys.tr.begin(int32(i), -1, layerOp)
		sys.root.Store(id)
	}
	start := time.Now()
	resp, err := sys.client.Do(req)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(start)
	if sys.tr != nil {
		sys.tr.end(id)
	}
	return d, err == nil && resp.StatusCode == http.StatusOK
}

// drive runs requests [from, to). Timed requests apply the churn batch
// due before them, outside the timing.
func (sys *servingSystem) drive(s *spec, in *serveInputs, log *serveLog, from, to int, timed bool) {
	var buf bytes.Buffer
	var ms runtime.MemStats
	for i := from; i < to; i++ {
		if j := i - s.warm; timed && j > 0 && j%s.churnEvery == 0 {
			runtime.ReadMemStats(&ms)
			a0 := ms.TotalAlloc
			mut, total, err := sys.churn(in.batches[j/s.churnEvery-1])
			runtime.ReadMemStats(&ms)
			log.churnAll += ms.TotalAlloc - a0
			log.mutate = append(log.mutate, mut)
			log.churnTime = append(log.churnTime, total)
			if err != nil && log.churnErr == nil {
				log.churnErr = err
			}
		}
		d, ok := sys.request(in, i, &buf)
		log.digest[i] = bodyDigest(buf.Bytes())
		log.ok[i] = ok
		if timed {
			log.lat = append(log.lat, d)
			log.bytes += int64(buf.Len())
		}
	}
}

// checkServe replays the run against a reference: an unsharded Iface fed
// the same data and churn, its answers encoded by AppendWireResult. It
// reports, per request, whether the served body matched.
func checkServe(s *spec, in *serveInputs, digest []uint64) ([]bool, error) {
	st := hiddendb.NewStore(in.sch)
	if err := st.ApplyBatch(in.initial, nil); err != nil {
		return nil, err
	}
	iface := hiddendb.NewIface(st, s.k, nil)
	memo := make(map[int32]uint64)
	match := make([]bool, len(in.seq))
	var buf []byte
	for i, q := range in.seq {
		if j := i - s.warm; j > 0 && j%s.churnEvery == 0 {
			b := in.batches[j/s.churnEvery-1]
			if err := st.ApplyBatch(b.ins, b.dels); err != nil {
				return nil, err
			}
			memo = make(map[int32]uint64)
		}
		d, ok := memo[q]
		if !ok {
			res, _ := iface.Search(in.queries[q])
			buf = append(webiface.AppendWireResult(buf[:0], s.k, res), '\n')
			d = bodyDigest(buf)
			memo[q] = d
		}
		match[i] = d == digest[i]
	}
	return match, nil
}

// servePass builds the stack `setups` times (set-up includes the warm-up
// requests), then times the remaining requests on the last one and
// checks every answer against the reference.
func servePass(s *spec, in *serveInputs, setups int, traced bool) (*passResult, error) {
	build := buildSingle
	if s.router {
		build = buildRouter
	}
	res := &passResult{}
	log := &serveLog{digest: make([]uint64, len(in.seq)), ok: make([]bool, len(in.seq))}
	var sys *servingSystem
	var tr *tracer
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		if traced {
			tr = newTracer(len(in.seq) * (2 + 6*routerShards))
		}
		runtime.GC()
		start := time.Now()
		var err error
		if sys, err = build(s, in, tr); err != nil {
			return nil, err
		}
		sys.drive(s, in, log, 0, s.warm, false)
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}
	if tr != nil {
		tr.spans = tr.spans[:0]
	}
	c0 := sys.counters()
	log.lat = make([]time.Duration, 0, len(in.seq)-s.warm)
	res.beginTimed()
	sys.drive(s, in, log, s.warm, len(in.seq), true)
	res.excludeAlloc(log.churnAll)
	res.endTimed()
	c1 := sys.counters()
	sys.close()
	res.lat = log.lat
	if log.churnErr != nil {
		res.note("churn failed: %v", log.churnErr)
		res.broken = true
	}

	match, err := checkServe(s, in, log.digest)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	all := fnv.New64a()
	for i := range in.seq {
		fmt.Fprintf(all, "%x,", log.digest[i])
		if log.ok[i] && match[i] {
			continue
		}
		if i < s.warm {
			res.note("warm-up request %d: status ok=%v, body matches reference=%v", i, log.ok[i], match[i])
			res.broken = true
			continue
		}
		res.failed++
		if res.failed <= 5 {
			res.note("request %d: status ok=%v, body matches reference=%v", i, log.ok[i], match[i])
		}
	}
	res.counts.add("requests", len(in.seq))
	res.counts.add("churn_batches", len(in.batches))
	res.counts.add("body_digest", all.Sum64())
	res.counts.add("timed_body_bytes", log.bytes)
	res.counts.add("cache_hits", c1.hits)
	res.counts.add("cache_misses", c1.misses)
	res.counts.add("engine_queries", c1.queries)
	if s.router {
		res.counts.add("fanouts", c1.fanouts)
		res.counts.add("retries", c1.retries)
	}

	if tr == nil {
		return res, nil
	}
	lt := summarize(tr.spans)
	res.trace = tr
	ops := float64(lt.ops)
	hits, misses := float64(c1.hits-c0.hits), float64(c1.misses-c0.misses)
	res.layer = map[string]float64{
		"transport.us":             us(lt.self[layerOp]) / ops,
		"webiface.handler_us":      us(lt.total[layerHandler]) / ops,
		"webiface.self_us":         us(lt.self[layerHandler]) / ops,
		"webiface.response_kb":     float64(log.bytes) / ops / 1024,
		"hiddendb.lookup_us":       us(lt.total[layerLookup]) / ops,
		"hiddendb.engine_us":       us(lt.total[layerEngine]) / ops,
		"hiddendb.queries":         float64(c1.queries-c0.queries) / ops,
		"hiddendb.cache_hit_ratio": hits / (hits + misses),
		"hiddendb.mutate_ms":       meanMs(log.mutate),
	}
	// Shares split the client's request time along its blocking path. The
	// shards of a fan-out run in parallel, so for the router the shard
	// work counts once, as the union of the shard spans.
	op := float64(lt.total[layerOp])
	res.shares = map[string]float64{"transport": float64(lt.self[layerOp]) / op}
	if !s.router {
		res.shares["webiface.self"] = float64(lt.self[layerHandler]) / op
		res.shares["hiddendb.lookup"] = float64(lt.total[layerLookup]) / op
		res.shares["hiddendb.engine"] = float64(lt.total[layerEngine]) / op
		return res, nil
	}
	res.layer["router.self_ms"] = ms(lt.self[layerRouter]) / ops
	res.layer["router.fanout_ms"] = ms(lt.busy[layerShard]) / ops
	res.layer["router.shard_skew_ms"] = ms(lt.skew) / ops
	res.layer["router.fanouts"] = float64(c1.fanouts-c0.fanouts) / ops
	res.layer["router.retries"] = float64(c1.retries-c0.retries) / ops
	res.layer["router.handshake_ms"] = meanMs(log.churnTime)
	res.shares["router.self"] = float64(lt.self[layerRouter]) / op
	res.shares["router.fanout"] = float64(lt.busy[layerShard]) / op
	return res, nil
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e6
}
