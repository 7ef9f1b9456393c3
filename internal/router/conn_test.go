package router

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/webiface"
)

// TestShardConnectionsReused: sequential GETs and handshakes ride the
// keep-alive connections the router already holds, so a shard
// sees at most one new connection over all of them. Answers are large
// enough (k = 250) that the shards send them chunked, which is where a
// client that stops reading at the end of the JSON value loses its
// connection.
func TestShardConnectionsReused(t *testing.T) {
	const shards, k, rounds = 2, 250, 10
	sch := testSchema()
	news := make([]atomic.Int64, shards)
	var bases []string
	for i := 0; i < shards; i++ {
		ss := hiddendb.NewShardedStore(sch, 1)
		var tuples []*schema.Tuple
		for id := uint64(1 + i); id <= 2000; id += shards {
			vals := []uint16{uint16(id % 7), uint16(id % 5), uint16(id % 4), uint16(id % 6)}
			tuples = append(tuples, &schema.Tuple{ID: id, Vals: vals, Aux: []float64{float64(id) / 3}})
		}
		if err := ss.ApplyBatch(tuples, nil); err != nil {
			t.Fatal(err)
		}
		admin := NewShardAdmin(ss, webiface.NewHandler(hiddendb.NewShardedIface(ss, k, nil)), AdminOptions{})
		srv := httptest.NewUnstartedServer(admin)
		n := &news[i]
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				n.Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		bases = append(bases, srv.URL)
	}
	rt, err := New(bases, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Handshake(context.Background()); err != nil {
		t.Fatal(err)
	}
	rtSrv := httptest.NewServer(rt)
	t.Cleanup(rtSrv.Close)
	for i := range news {
		news[i].Store(0)
	}

	for r := 0; r < rounds; r++ {
		if code, body := fetch(t, http.MethodGet, rtSrv.URL+"/v1/search", "", ""); code != http.StatusOK {
			t.Fatalf("GET: %d %q", code, body)
		}
		if _, err := rt.Handshake(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for i := range news {
		if n := news[i].Load(); n > 1 {
			t.Errorf("shard %d accepted %d new connections over %d sequential GETs and handshakes, want at most 1", i, n, rounds)
		}
	}
}
