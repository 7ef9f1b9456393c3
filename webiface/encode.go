package webiface

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/dynagg/dynagg/internal/hiddendb"
)

// Serving fast path: pooled request scratch and a hand-rolled JSON
// fragment encoder.
//
// The hot GET /v1/search request on a warm cache does no steady-state
// allocation beyond the response write: the query string is parsed
// straight off RawQuery into pooled predicate scratch, the answer cache
// is probed with scratch-built key bytes (hiddendb.Iface.LookupAnswer),
// and a hit serves the pre-encoded body memoized on the shared
// *hiddendb.Answer. The encoder produces bytes identical to
// encoding/json over the wire* structs — the fuzz tests in
// fastpath_test.go pin that equivalence — so clients cannot observe
// whether a response came off the fast path, the full path, a
// singleflight winner or a waiter.

// reqScratch is one request's pooled working memory. A scratch is owned
// by exactly one request goroutine from getReqScratch to putReqScratch
// and holds no answer references while pooled (results are served
// straight from the shared Answer's memoized bytes, never copied here).
type reqScratch struct {
	preds []hiddendb.Pred
	seen  []bool // per-attribute duplicate check, sized to schema M
	key   []byte // cache-key bytes (hiddendb.AppendPredsKey)
	buf   []byte // batch response splice buffer
	body  []byte // batch request body read buffer
	qs    []hiddendb.Query
	req   wireBatchRequest // batch decode target; Queries reused across requests
}

var reqScratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

func getReqScratch() *reqScratch { return reqScratchPool.Get().(*reqScratch) }

func putReqScratch(sc *reqScratch) {
	sc.preds = sc.preds[:0]
	sc.qs = sc.qs[:0]
	reqScratchPool.Put(sc)
}

// bufPool recycles the whole-answer byte buffers of both sides: the
// handler's encode buffer, of which only the exact-size copy retained on
// the Answer is allocated per encode, and the client's read buffer, which
// no decoded Result aliases. Each buffer is owned by one call from getBuf
// to putBuf.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// maxPooledBuf bounds the buffers bufPool keeps: one huge answer must not
// pin its memory in the pool for the life of the process.
const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// encodeResult renders one search answer to a fresh exact-size byte
// slice (no trailing newline — callers splice or append it). The slice
// is retained forever on the Answer that memoizes it, so it must not
// alias pooled memory.
func (h *Handler) encodeResult(res hiddendb.Result) []byte {
	bp := getBuf()
	b := appendWireResult((*bp)[:0], h.b.K(), res)
	out := make([]byte, len(b))
	copy(out, b)
	*bp = b
	putBuf(bp)
	return out
}

// AppendWireResult appends the wire JSON encoding of a search answer to
// dst. It is the exported face of the serving encoder for code outside
// the Handler that must produce the same bytes, such as a reference
// encoder checking served bodies.
func AppendWireResult(dst []byte, k int, res hiddendb.Result) []byte {
	return appendWireResult(dst, k, res)
}

// appendWireResult appends the JSON encoding of a search answer —
// byte-identical to encoding/json marshalling the equivalent wireResult
// (nil tuple slice encodes as null, aux is omitempty, floats use the
// shortest round-trip form with json's exponent-format thresholds).
func appendWireResult(dst []byte, k int, res hiddendb.Result) []byte {
	dst = append(dst, `{"k":`...)
	dst = strconv.AppendInt(dst, int64(k), 10)
	dst = append(dst, `,"overflow":`...)
	dst = strconv.AppendBool(dst, res.Overflow)
	dst = append(dst, `,"tuples":`...)
	if len(res.Tuples) == 0 {
		// The encoding/json reference (wireResultOf, in the tests)
		// never appends here, leaving a nil slice: "null".
		return append(dst, `null}`...)
	}
	dst = append(dst, '[')
	for i, t := range res.Tuples {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendUint(dst, t.ID, 10)
		dst = append(dst, `,"vals":`...)
		if t.Vals == nil {
			dst = append(dst, `null`...)
		} else {
			dst = append(dst, '[')
			for j, v := range t.Vals {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendUint(dst, uint64(v), 10)
			}
			dst = append(dst, ']')
		}
		if len(t.Aux) > 0 {
			dst = append(dst, `,"aux":[`...)
			for j, a := range t.Aux {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendJSONFloat(dst, a)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}

// appendJSONFloat appends f exactly as encoding/json's floatEncoder
// renders a float64: shortest round-trip form, fixed notation unless
// the magnitude is below 1e-6 or at least 1e21, and a trimmed one-digit
// negative exponent ("e-7", not "e-07").
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// contentTypeJSON is the pre-built Content-Type header value: assigning
// a shared slice sidesteps Header().Set's per-call []string allocation
// (the key is already in canonical MIME form).
var contentTypeJSON = []string{"application/json"}

// writeAnswer serves an answer's memoized wire bytes: the first writer
// under a version pays one encode, every later hit is a buffer write.
// The trailing newline matches what json.Encoder.Encode appended before
// the fast path existed.
func (h *Handler) writeAnswer(w http.ResponseWriter, a *hiddendb.Answer) {
	w.Header()["Content-Type"] = contentTypeJSON
	_, _ = w.Write(a.Wire(h.encodeResult))
	_, _ = io.WriteString(w, "\n")
}

// parseSearchParams parses a GET /v1/search query string into sc.preds
// (validated, then sorted by the caller) and returns the key= parameter
// value. Canonical query strings — no percent-escapes, '+' or ';' —
// are walked directly off RawQuery with zero allocation; anything else
// falls back to net/url parsing with identical semantics.
func (h *Handler) parseSearchParams(r *http.Request, sc *reqScratch) (qkey string, err error) {
	sc.preds = sc.preds[:0]
	m := h.b.Schema().M()
	if cap(sc.seen) < m {
		sc.seen = make([]bool, m)
	}
	sc.seen = sc.seen[:m]
	for i := range sc.seen {
		sc.seen[i] = false
	}
	raw := r.URL.RawQuery
	if strings.ContainsAny(raw, "%+;") {
		vals := r.URL.Query()
		for _, w := range vals["where"] {
			if err := h.parsePredInto(w, sc); err != nil {
				return "", err
			}
		}
		return vals.Get("key"), nil
	}
	keySeen := false
	for raw != "" {
		var seg string
		seg, raw, _ = strings.Cut(raw, "&")
		if seg == "" {
			continue
		}
		name, val, _ := strings.Cut(seg, "=")
		switch name {
		case "where":
			if err := h.parsePredInto(val, sc); err != nil {
				return "", err
			}
		case "key":
			// First occurrence wins even when empty, matching
			// url.Values.Get on the fallback path: ?key=&key=X must
			// charge the same budget key whichever parser ran.
			if !keySeen {
				keySeen = true
				qkey = val
			}
		}
	}
	return qkey, nil
}

// parsePredInto validates one "attr:value" predicate against the schema
// and appends it to the scratch predicate list. The error strings are
// those the pre-fast-path parser produced.
func (h *Handler) parsePredInto(raw string, sc *reqScratch) error {
	attr, val, err := parsePred(raw)
	if err != nil {
		return err
	}
	if attr < 0 || attr >= len(sc.seen) {
		return fmt.Errorf("unknown attribute %d", attr)
	}
	if sc.seen[attr] {
		return fmt.Errorf("duplicate predicate on attribute %d", attr)
	}
	sc.seen[attr] = true
	sc.preds = append(sc.preds, hiddendb.Pred{Attr: attr, Val: val})
	return nil
}

// sortPreds orders the scratch predicates by attribute index — insertion
// sort, since conjunctive queries carry a handful of predicates and
// sort.Slice's closure would allocate on the hot path. Duplicates were
// already rejected, so the order is total.
func sortPreds(preds []hiddendb.Pred) {
	for i := 1; i < len(preds); i++ {
		p := preds[i]
		j := i - 1
		for j >= 0 && preds[j].Attr > p.Attr {
			preds[j+1] = preds[j]
			j--
		}
		preds[j+1] = p
	}
}

// readBody reads r to EOF into b's storage, growing it as needed: a
// handler's batch request into its pooled scratch, a client's answer
// into a pooled buffer. It returns the grown buffer on error too, so
// the caller can keep it.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	b = b[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 4096)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
