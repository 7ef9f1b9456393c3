package webiface

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
)

// Client fast path: the inverse of appendWireResult.
//
// A native answer is read into a pooled buffer and walked byte by byte
// against exactly the layout appendWireResult writes. The walk builds
// every Result of a body from four slabs sized before it starts, so a
// canonical answer costs four allocations however many tuples it holds,
// and no Result aliases the pooled buffer: every value is parsed out.
// Any other body (reordered or unknown fields, inner whitespace, escapes,
// case-variant keys, out-of-range numbers) makes the walk decline, and
// the body goes through encoding/json (jsonWireResult), which is also
// the reference the fuzz target checks the walk against.

// errAnswerK marks an answer computed under another result cap than the
// one the client dialed: a shard daemon restarted behind the same
// address with another -k. Merging or estimating from it would be wrong
// without any visible error, and a retry would only ask the same server.
var errAnswerK = errors.New("webiface: answer under another k")

func checkK(got, want int) error {
	if got != want {
		return fmt.Errorf("%w: answered k=%d, dialed k=%d", errAnswerK, got, want)
	}
	return nil
}

// readAnswer reads a GET answer body into a pooled buffer and decodes it.
func (c *Client) readAnswer(r io.Reader) (hiddendb.Result, error) {
	bp := getBuf()
	defer putBuf(bp)
	b, err := readBody(r, *bp)
	*bp = b
	if err != nil {
		return hiddendb.Result{}, fmt.Errorf("webiface: result read: %w", err)
	}
	return parseWireResult(b, c.k, c.sch.M())
}

// parseWireResult decodes one GET answer under result cap k, for a
// schema of m attributes (m only sizes the vals slab).
func parseWireResult(b []byte, k, m int) (hiddendb.Result, error) {
	w := newWireWalk(b, m)
	if res, ok := w.result(k); ok && w.end() {
		return res, nil
	}
	return jsonWireResult(b, k)
}

// jsonWireResult is parseWireResult through encoding/json alone. Like
// any json.Decoder, it ignores bytes after the first value.
func jsonWireResult(b []byte, k int) (hiddendb.Result, error) {
	var wr wireResult
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&wr); err != nil {
		return hiddendb.Result{}, fmt.Errorf("webiface: result decode: %w", err)
	}
	if err := checkK(wr.K, k); err != nil {
		return hiddendb.Result{}, err
	}
	return resultFromWire(wr), nil
}

// resultFromWire converts a decoded wire result to the engine type.
func resultFromWire(wr wireResult) hiddendb.Result {
	out := hiddendb.Result{Overflow: wr.Overflow}
	for _, t := range wr.Tuples {
		out.Tuples = append(out.Tuples, &schema.Tuple{ID: t.ID, Vals: t.Vals, Aux: t.Aux})
	}
	return out
}

// tupleOpener starts every tuple of a canonical body, and nothing else
// in one: counting it sizes the slabs before the walk.
var tupleOpener = []byte(`{"id":`)

// wireWalk is one walk over a canonical body. Its methods report false
// at the first byte that departs from the layout appendWireResult
// writes; the caller then falls back to encoding/json.
type wireWalk struct {
	b      []byte
	i      int
	tuples []schema.Tuple  // one per tuple opener; nt are walked
	ptrs   []*schema.Tuple // backs every Result.Tuples of the body
	nt     int
	vals   []uint16  // free tail of the vals slab
	aux    []float64 // free tail of the aux slab, sized at the first aux
}

// newWireWalk sizes the slabs for a schema of m attributes. A value
// takes at least two bytes of body, which bounds every slab by the body
// whatever counts a hostile server's bytes suggest.
func newWireWalk(b []byte, m int) wireWalk {
	w := wireWalk{b: b}
	if n := bytes.Count(b, tupleOpener); n > 0 {
		w.tuples = make([]schema.Tuple, n)
		w.ptrs = make([]*schema.Tuple, n)
		w.vals = make([]uint16, 0, min(n*m, len(b)/2))
	}
	return w
}

// lit consumes s if the body continues with it.
func (w *wireWalk) lit(s string) bool {
	if len(w.b)-w.i < len(s) || string(w.b[w.i:w.i+len(s)]) != s {
		return false
	}
	w.i += len(s)
	return true
}

// end reports whether only JSON whitespace follows the walked value, as
// after the newline writeAnswer appends.
func (w *wireWalk) end() bool {
	return len(bytes.TrimLeft(w.b[w.i:], " \t\n\r")) == 0
}

// decimal consumes an unsigned decimal with no sign and no leading zero
// that is at most max.
func (w *wireWalk) decimal(max uint64) (uint64, bool) {
	var v uint64
	i := w.i
	for ; i < len(w.b) && '0' <= w.b[i] && w.b[i] <= '9'; i++ {
		d := uint64(w.b[i] - '0')
		if v > (max-d)/10 || (i > w.i && v == 0) {
			return 0, false
		}
		v = v*10 + d
	}
	if i == w.i {
		return 0, false
	}
	w.i = i
	return v, true
}

// float consumes a number of the JSON grammar and parses it with the
// call encoding/json makes. ParseFloat alone would also take forms JSON
// does not, such as "inf", "0x1p-2", "1_0" and ".5".
func (w *wireWalk) float() (float64, bool) {
	b, i := w.b, w.i
	digits := func() int {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if n := digits(); n == 0 || (n > 1 && b[i-n] == '0') {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[w.i:i]), 64)
	if err != nil {
		return 0, false
	}
	w.i = i
	return f, true
}

// result walks {"k":K,"overflow":B,"tuples":null|[tuple,…]} under k.
func (w *wireWalk) result(k int) (hiddendb.Result, bool) {
	var res hiddendb.Result
	if !w.lit(`{"k":`) {
		return res, false
	}
	if v, ok := w.decimal(math.MaxInt); !ok || v != uint64(k) {
		return res, false
	}
	switch {
	case w.lit(`,"overflow":true,"tuples":`):
		res.Overflow = true
	case !w.lit(`,"overflow":false,"tuples":`):
		return res, false
	}
	if w.lit(`null}`) {
		return res, true
	}
	if !w.lit(`[`) {
		return res, false
	}
	first := w.nt
	for {
		if !w.tuple() {
			return res, false
		}
		if w.lit(`]}`) {
			break
		}
		if !w.lit(`,`) {
			return res, false
		}
	}
	res.Tuples = w.ptrs[first:w.nt:w.nt]
	return res, true
}

// tuple walks {"id":N,"vals":null|[v,…]} with an optional ,"aux":[f,…]
// before the closing brace. "vals":[] gives an empty non-nil slice, as
// encoding/json does, so it re-encodes as [].
func (w *wireWalk) tuple() bool {
	if w.nt == len(w.tuples) || !w.lit(`{"id":`) {
		return false
	}
	t := &w.tuples[w.nt]
	id, ok := w.decimal(math.MaxUint64)
	if !ok || !w.lit(`,"vals":`) {
		return false
	}
	t.ID = id
	if !w.lit(`null`) {
		if !w.lit(`[`) {
			return false
		}
		vals := w.vals
		for !w.lit(`]`) {
			if len(vals) > 0 && !w.lit(`,`) {
				return false
			}
			v, ok := w.decimal(math.MaxUint16)
			if !ok {
				return false
			}
			vals = append(vals, uint16(v))
		}
		t.Vals, w.vals = vals[:len(vals):len(vals)], vals[len(vals):]
	}
	if w.lit(`,"aux":[`) {
		if cap(w.aux) == 0 {
			// Size the slab for the tuples left at this tuple's aux count.
			end := bytes.IndexByte(w.b[w.i:], ']')
			if end < 0 {
				return false
			}
			perTuple := 1 + bytes.Count(w.b[w.i:w.i+end], []byte{','})
			w.aux = make([]float64, 0, min(perTuple*(len(w.tuples)-w.nt), (len(w.b)-w.i)/2+1))
		}
		aux := w.aux
		for !w.lit(`]`) {
			if len(aux) > 0 && !w.lit(`,`) {
				return false
			}
			f, ok := w.float()
			if !ok {
				return false
			}
			aux = append(aux, f)
		}
		t.Aux, w.aux = aux[:len(aux):len(aux)], aux[len(aux):]
	}
	if !w.lit(`}`) {
		return false
	}
	w.ptrs[w.nt] = t
	w.nt++
	return true
}
