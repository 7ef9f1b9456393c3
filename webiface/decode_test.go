package webiface

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/workload"
)

// The client's walk must decode exactly what encoding/json decodes,
// errors included: FuzzParseWireResult holds it to jsonWireResult on any
// body, and its seed corpus under testdata/fuzz runs under plain go test
// too.

// realAnswer is the canonical body of an Autos-shaped root query: 250
// tuples of M = 38 values and one aux each, with the trailing newline
// the Handler writes.
func realAnswer(t testing.TB) []byte {
	t.Helper()
	env, err := workload.NewEnv(workload.AutosLikeN(7, 3000, 38), 2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hiddendb.NewIface(env.Store, 250, nil).Search(hiddendb.NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 250 || len(res.Tuples[0].Aux) != 1 {
		t.Fatalf("want 250 tuples with one aux each, got %d", len(res.Tuples))
	}
	return append(AppendWireResult(nil, 250, res), '\n')
}

// TestParseWireResultAllocs pins the slab contract: a canonical answer
// costs four allocations (tuples, pointers, vals, aux) however large.
func TestParseWireResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	b := realAnswer(t)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := parseWireResult(b, 250, 38); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Fatalf("canonical 250-tuple answer: %v allocs, want 4", allocs)
	}
}

// BenchmarkParseWireResult decodes one 250-tuple answer through the
// walk and through encoding/json alone, the decode the walk replaced.
func BenchmarkParseWireResult(b *testing.B) {
	body := realAnswer(b)
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parseWireResult(body, 250, 38); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := jsonWireResult(body, 250); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestParseWireResultRoundTrip: every canonical body re-encodes to
// itself, so the walk keeps nil apart from empty.
func TestParseWireResultRoundTrip(t *testing.T) {
	cases := []struct {
		k    int
		body string
	}{
		{250, string(bytes.TrimSuffix(realAnswer(t), []byte("\n")))},
		{3, `{"k":3,"overflow":false,"tuples":null}`},
		{3, `{"k":3,"overflow":true,"tuples":[{"id":0,"vals":[]},{"id":18446744073709551615,"vals":null,"aux":[-0,1e-7,1e+21,0.5]}]}`},
		{3, `{"k":3,"overflow":false,"tuples":[{"id":9,"vals":[65535,0,7],"aux":[2,3]},{"id":1,"vals":[1],"aux":[-12.25]}]}`},
	}
	for _, c := range cases {
		res, err := parseWireResult([]byte(c.body), c.k, 3)
		if err != nil {
			t.Fatalf("%.60s: %v", c.body, err)
		}
		if got := string(AppendWireResult(nil, c.k, res)); got != c.body {
			t.Fatalf("round trip changed the body:\n got %.200s\nwant %.200s", got, c.body)
		}
		want, err := jsonWireResult([]byte(c.body), c.k)
		if err != nil || !reflect.DeepEqual(res, want) {
			t.Fatalf("%.60s: walk and encoding/json disagree (%v)", c.body, err)
		}
	}
}

// TestParseWireResultFallback: bodies the walk declines still decode,
// through encoding/json, to the Result of the canonical body.
func TestParseWireResultFallback(t *testing.T) {
	canonical := `{"k":5,"overflow":true,"tuples":[{"id":4,"vals":[1,2],"aux":[0.5]},{"id":2,"vals":null}]}`
	want, err := parseWireResult([]byte(canonical), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"tuples":[{"vals":[1,2],"id":4,"aux":[0.5]},{"id":2,"vals":null}],"overflow":true,"k":5}`,
		`{ "k": 5, "overflow": true, "tuples": [ {"id": 4, "vals": [1, 2], "aux": [5e-1]}, {"id": 2, "vals": null} ] }`,
		`{"K":5,"overflow":true,"tuples":[{"ID":4,"vals":[1,2],"aux":[0.5]},{"id":2,"vals":null}]}`,
		canonical + ` trailing bytes`,
	} {
		got, err := parseWireResult([]byte(body), 5, 2)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fallback decoded another Result", body)
		}
	}
}

// TestParseWireRefusesOtherK: an answer under another k is refused on
// the walk and the fallback alike, naming both values.
func TestParseWireRefusesOtherK(t *testing.T) {
	for _, body := range []string{
		`{"k":3,"overflow":false,"tuples":null}`,
		`{"overflow":false,"k":3,"tuples":null}`,
	} {
		_, err := parseWireResult([]byte(body), 25, 4)
		if !errors.Is(err, errAnswerK) || err.Error() != "webiface: answer under another k: answered k=3, dialed k=25" {
			t.Fatalf("%s: %v, want the k refusal", body, err)
		}
	}
}

// TestClientSendsCanonicalQuery: the client writes where=attr:value
// unescaped, in predicate order, so the Handler parses it without
// net/url; a match-all query sends no query string at all.
func TestClientSendsCanonicalQuery(t *testing.T) {
	env, err := workload.NewEnv(workload.AutosLikeN(5, 500, 13), 450, 6)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(hiddendb.NewIface(env.Store, 10, nil))
	var mu sync.Mutex
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/search" {
			mu.Lock()
			got = append(got, r.URL.RawQuery)
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c, err := Dial(srv.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []hiddendb.Query{
		hiddendb.NewQuery(hiddendb.Pred{Attr: 12, Val: 0}, hiddendb.Pred{Attr: 3, Val: 5}),
		hiddendb.NewQuery(),
	} {
		if _, err := c.Search(q); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"where=3:5&where=12:0", ""}; !reflect.DeepEqual(got, want) {
		t.Fatalf("raw queries %q, want %q", got, want)
	}
}

// TestClientIgnoresProbeMark: a hidden database has no probe, so a
// marked query goes out as the same query string as the unmarked one and
// comes back as the full answer, tuples included.
func TestClientIgnoresProbeMark(t *testing.T) {
	env, err := workload.NewEnv(workload.AutosLikeN(5, 500, 13), 450, 6)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(hiddendb.NewIface(env.Store, 10, nil))
	var mu sync.Mutex
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/search" {
			mu.Lock()
			got = append(got, r.URL.RawQuery)
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c, err := Dial(srv.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []hiddendb.Query{
		hiddendb.NewQuery(),
		hiddendb.NewQuery(hiddendb.Pred{Attr: 0, Val: 1}),
	} {
		full, err := c.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		probe, err := c.Search(q.Probe())
		if err != nil {
			t.Fatal(err)
		}
		if !full.Overflow || len(full.Tuples) != 10 {
			t.Fatalf("%v: want an overflowing answer of 10 tuples, got %d (overflow %v)", q, len(full.Tuples), full.Overflow)
		}
		if !reflect.DeepEqual(probe, full) {
			t.Fatalf("%v: the marked query's answer differs from the unmarked one's", q)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"", "", "where=0:1", "where=0:1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("raw queries %q, want %q", got, want)
	}
}

// FuzzParseWireResult: for any body, k and schema width, the walk with
// its fallback and encoding/json alone both fail or decode equal Results.
func FuzzParseWireResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, k uint16, m uint8, body []byte) {
		got, err := parseWireResult(body, int(k), int(m))
		want, refErr := jsonWireResult(body, int(k))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("walk error %v, encoding/json error %v", err, refErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("walk and encoding/json decode different Results")
		}
	})
}

// FuzzParseSearchParams: the Handler's query-string walk and net/url
// plus parseWhere agree on failure, the sorted predicates and the key.
func FuzzParseSearchParams(f *testing.F) {
	env, err := workload.NewEnv(workload.AutosLikeN(111, 500, 8), 400, 112)
	if err != nil {
		f.Fatal(err)
	}
	h := NewHandler(hiddendb.NewIface(env.Store, 10, nil))
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/search", RawQuery: raw}}
		sc := new(reqScratch)
		key, err := h.parseSearchParams(r, sc)
		vals := r.URL.Query()
		q, refErr := h.parseWhere(vals["where"])
		if (err == nil) != (refErr == nil) {
			t.Fatalf("walk error %v, net/url error %v", err, refErr)
		}
		if err != nil {
			return
		}
		sortPreds(sc.preds)
		if want := q.Preds(); len(sc.preds) != len(want) || (len(want) > 0 && !reflect.DeepEqual(sc.preds, want)) {
			t.Fatalf("walk predicates %v, net/url %v", sc.preds, want)
		}
		if want := vals.Get("key"); key != want {
			t.Fatalf("walk key %q, net/url %q", key, want)
		}
	})
}

// parseWhere is the reference FuzzParseSearchParams holds the Handler's
// query-string walk to: it validates and assembles "attr:value"
// predicate strings against the schema with a map for the duplicate
// check, and builds the Query through NewQuery's sort.
func (h *Handler) parseWhere(where []string) (hiddendb.Query, error) {
	sch := h.b.Schema()
	var preds []hiddendb.Pred
	seen := make(map[int]bool)
	for _, raw := range where {
		attr, val, err := parsePred(raw)
		if err != nil {
			return hiddendb.Query{}, err
		}
		if attr < 0 || attr >= sch.M() {
			return hiddendb.Query{}, fmt.Errorf("unknown attribute %d", attr)
		}
		if seen[attr] {
			return hiddendb.Query{}, fmt.Errorf("duplicate predicate on attribute %d", attr)
		}
		seen[attr] = true
		preds = append(preds, hiddendb.Pred{Attr: attr, Val: val})
	}
	return hiddendb.NewQuery(preds...), nil
}
