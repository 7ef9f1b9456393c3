// Package metrics renders Prometheus-style plaintext exposition for the
// serving binaries' /metrics endpoints (dynagg-serve, dynagg-router,
// dynagg-fleet). It is deliberately tiny — a text builder, not a metrics
// registry: every endpoint snapshots the state it already publishes
// (immutable views, atomic counters) and renders it on demand, so there
// is no background collection and nothing new to synchronise.
package metrics

import (
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Builder accumulates one exposition document. The zero value is ready.
type Builder struct {
	sb strings.Builder
}

// Family starts a metric family: typ is "counter", "gauge" or
// "histogram". Call it once per family, before the family's Value (or
// Histogram) calls.
func (b *Builder) Family(name, typ, help string) {
	b.sb.WriteString("# HELP ")
	b.sb.WriteString(name)
	b.sb.WriteByte(' ')
	b.sb.WriteString(help)
	b.sb.WriteString("\n# TYPE ")
	b.sb.WriteString(name)
	b.sb.WriteByte(' ')
	b.sb.WriteString(typ)
	b.sb.WriteByte('\n')
}

// Value emits one sample. labelPairs are key, value alternations; an odd
// count is a programming error and panics. Emit samples in a
// deterministic order (see SortedKeys) so scrapes are diffable.
func (b *Builder) Value(name string, v float64, labelPairs ...string) {
	if len(labelPairs)%2 != 0 {
		panic("metrics: odd label pair count")
	}
	b.sb.WriteString(name)
	if len(labelPairs) > 0 {
		b.sb.WriteByte('{')
		for i := 0; i < len(labelPairs); i += 2 {
			if i > 0 {
				b.sb.WriteByte(',')
			}
			b.sb.WriteString(labelPairs[i])
			b.sb.WriteString(`="`)
			b.sb.WriteString(escapeLabel(labelPairs[i+1]))
			b.sb.WriteByte('"')
		}
		b.sb.WriteByte('}')
	}
	b.sb.WriteByte(' ')
	b.sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.sb.WriteByte('\n')
}

// Int emits one integer-valued sample.
func (b *Builder) Int(name string, v int, labelPairs ...string) {
	b.Value(name, float64(v), labelPairs...)
}

// Histogram emits one histogram's full sample set under an already
// declared "histogram" family: cumulative "_bucket" samples with an
// "le" label per upper bound plus le="+Inf", then "_sum" and "_count".
// counts must carry len(bounds)+1 entries — per-bucket (non-cumulative)
// counts with the overflow bucket last — and sum is in the family's
// unit (seconds for latency families). bounds must be sorted ascending;
// cumulative sums make the emitted buckets monotone by construction.
func (b *Builder) Histogram(name string, bounds []float64, counts []uint64, sum float64, labelPairs ...string) {
	if len(counts) != len(bounds)+1 {
		panic("metrics: histogram counts must have len(bounds)+1 entries")
	}
	if len(labelPairs)%2 != 0 {
		panic("metrics: odd label pair count")
	}
	// One shared label slice with the trailing le pair rewritten per
	// bucket — never append to the caller's slice (aliasing).
	lp := make([]string, len(labelPairs), len(labelPairs)+2)
	copy(lp, labelPairs)
	lp = append(lp, "le", "")
	var cum uint64
	for i, bound := range bounds {
		cum += counts[i]
		lp[len(lp)-1] = strconv.FormatFloat(bound, 'g', -1, 64)
		b.Value(name+"_bucket", float64(cum), lp...)
	}
	cum += counts[len(bounds)]
	lp[len(lp)-1] = "+Inf"
	b.Value(name+"_bucket", float64(cum), lp...)
	b.Value(name+"_sum", sum, labelPairs...)
	b.Value(name+"_count", float64(cum), labelPairs...)
}

// WriteTo writes the exposition text.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, b.sb.String())
	return int64(n), err
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// SortedKeys returns the map's keys in sorted order — the deterministic
// emission order for per-key sample families.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
