// Package promcheck strictly validates Prometheus text-format (0.0.4)
// exposition documents — the CI guard behind every daemon's /v1/metrics.
// It is a validator, not a general parser: it enforces the subset the
// repo's metrics.Builder is supposed to emit, and errs on the side of
// rejecting anything ambiguous:
//
//   - every sample belongs to the most recently declared family, which
//     must carry a HELP line immediately followed by its TYPE line;
//   - metric and label names are well-formed, label values properly
//     quoted and escaped, sample values parse as floats;
//   - histogram families are complete per label set: cumulative,
//     monotone non-decreasing buckets with ascending le bounds, a
//     mandatory le="+Inf" bucket, and _sum/_count samples with _count
//     equal to the +Inf bucket;
//   - no family is declared twice and the document ends with a newline.
//
// The package is test-only: `make promcheck` runs its scrape tests, which
// hold the live documents of all three daemons to the validator.
package promcheck

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Validate checks one exposition document, returning the first
// violation found (nil for a valid document).
func Validate(text string) error {
	if text == "" {
		return fmt.Errorf("promcheck: empty document")
	}
	if !strings.HasSuffix(text, "\n") {
		return fmt.Errorf("promcheck: document does not end with a newline")
	}
	v := &validator{
		families: make(map[string]string),
	}
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if err := v.line(line); err != nil {
			return fmt.Errorf("promcheck: line %d: %w (%q)", i+1, err, line)
		}
	}
	return v.finish()
}

type validator struct {
	families map[string]string // family name → type

	cur         string // current family name ("" before the first)
	curType     string
	pendingHelp string // family named by a HELP line awaiting its TYPE

	hist map[string]*histSeries // per-label-set state of the current histogram family
}

// histSeries tracks one label set's bucket/count/sum samples.
type histSeries struct {
	lastLe  float64
	lastCum float64
	buckets int
	infSeen bool
	infVal  float64
	count   *float64
	sumSeen bool
}

func (v *validator) line(line string) error {
	switch {
	case line == "":
		return fmt.Errorf("blank line")
	case strings.HasPrefix(line, "# HELP "):
		return v.helpLine(line)
	case strings.HasPrefix(line, "# TYPE "):
		return v.typeLine(line)
	case strings.HasPrefix(line, "#"):
		return fmt.Errorf("comment is neither HELP nor TYPE")
	default:
		return v.sampleLine(line)
	}
}

func (v *validator) helpLine(line string) error {
	if v.pendingHelp != "" {
		return fmt.Errorf("HELP for %q not followed by its TYPE", v.pendingHelp)
	}
	rest := strings.TrimPrefix(line, "# HELP ")
	name, _, found := strings.Cut(rest, " ")
	if !found || name == "" {
		return fmt.Errorf("malformed HELP line")
	}
	if !validMetricName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	if _, dup := v.families[name]; dup {
		return fmt.Errorf("family %q declared twice", name)
	}
	v.pendingHelp = name
	return nil
}

func (v *validator) typeLine(line string) error {
	rest := strings.TrimPrefix(line, "# TYPE ")
	name, typ, found := strings.Cut(rest, " ")
	if !found || name == "" || typ == "" {
		return fmt.Errorf("malformed TYPE line")
	}
	if v.pendingHelp != name {
		return fmt.Errorf("TYPE for %q without an immediately preceding HELP", name)
	}
	switch typ {
	case "counter", "gauge", "histogram", "summary", "untyped":
	default:
		return fmt.Errorf("unknown metric type %q", typ)
	}
	if err := v.closeFamily(); err != nil {
		return err
	}
	v.pendingHelp = ""
	v.cur, v.curType = name, typ
	v.families[name] = typ
	if typ == "histogram" {
		v.hist = make(map[string]*histSeries)
	} else {
		v.hist = nil
	}
	return nil
}

func (v *validator) sampleLine(line string) error {
	if v.pendingHelp != "" {
		return fmt.Errorf("HELP for %q not followed by its TYPE", v.pendingHelp)
	}
	if v.cur == "" {
		return fmt.Errorf("sample before any family declaration")
	}
	name, labels, value, err := parseSample(line)
	if err != nil {
		return err
	}
	if v.curType == "histogram" {
		return v.histogramSample(name, labels, value)
	}
	if name != v.cur {
		return fmt.Errorf("sample %q under family %q", name, v.cur)
	}
	return nil
}

func (v *validator) histogramSample(name string, labels []labelPair, value float64) error {
	suffix := strings.TrimPrefix(name, v.cur)
	key := labelKey(labels, true)
	s := v.hist[key]
	if s == nil {
		s = &histSeries{lastLe: math.Inf(-1), lastCum: math.Inf(-1)}
		v.hist[key] = s
	}
	switch suffix {
	case "_bucket":
		le, ok := leOf(labels)
		if !ok {
			return fmt.Errorf("%s sample without le label", name)
		}
		var bound float64
		if le == "+Inf" {
			bound = math.Inf(1)
		} else {
			var err error
			bound, err = strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("unparseable le %q", le)
			}
		}
		if bound <= s.lastLe {
			return fmt.Errorf("bucket bounds not ascending: le=%q after %g", le, s.lastLe)
		}
		if s.lastCum != math.Inf(-1) && value < s.lastCum {
			return fmt.Errorf("histogram buckets not monotone: %g after %g", value, s.lastCum)
		}
		if s.infSeen {
			return fmt.Errorf("bucket after le=\"+Inf\"")
		}
		s.lastLe, s.lastCum = bound, value
		s.buckets++
		if math.IsInf(bound, 1) {
			s.infSeen = true
			s.infVal = value
		}
	case "_sum":
		if s.sumSeen {
			return fmt.Errorf("duplicate %s for label set {%s}", name, key)
		}
		s.sumSeen = true
	case "_count":
		if s.count != nil {
			return fmt.Errorf("duplicate %s for label set {%s}", name, key)
		}
		c := value
		s.count = &c
	default:
		return fmt.Errorf("sample %q under histogram family %q", name, v.cur)
	}
	return nil
}

// closeFamily verifies the completeness conditions of the family being
// left — only histograms accumulate cross-line state.
func (v *validator) closeFamily() error {
	for key, s := range v.hist {
		if !s.infSeen {
			return fmt.Errorf("histogram %s{%s} missing le=\"+Inf\" bucket", v.cur, key)
		}
		if s.count == nil || s.infVal != *s.count {
			return fmt.Errorf("histogram %s{%s}: _count absent or != +Inf bucket", v.cur, key)
		}
		if !s.sumSeen {
			return fmt.Errorf("histogram %s{%s} missing _sum", v.cur, key)
		}
	}
	v.hist = nil
	return nil
}

func (v *validator) finish() error {
	if v.pendingHelp != "" {
		return fmt.Errorf("promcheck: HELP for %q not followed by its TYPE", v.pendingHelp)
	}
	if err := v.closeFamily(); err != nil {
		return fmt.Errorf("promcheck: %w", err)
	}
	return nil
}

type labelPair struct{ name, value string }

// parseSample splits `name{a="b",...} value` with full escape handling.
func parseSample(line string) (string, []labelPair, float64, error) {
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return "", nil, 0, fmt.Errorf("malformed sample")
	}
	name := line[:nameEnd]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[nameEnd:]
	var labels []labelPair
	if rest[0] == '{' {
		var err error
		labels, rest, err = parseLabels(rest[1:])
		if err != nil {
			return "", nil, 0, err
		}
	}
	if len(rest) == 0 || rest[0] != ' ' {
		return "", nil, 0, fmt.Errorf("missing space before value")
	}
	valStr := rest[1:]
	if valStr == "" || strings.ContainsAny(valStr, " \t") {
		// Strict: exactly one value token, no timestamp (the builder
		// never emits one).
		return "", nil, 0, fmt.Errorf("malformed value %q", valStr)
	}
	value, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("unparseable value %q", valStr)
	}
	return name, labels, value, nil
}

// parseLabels consumes `a="b",c="d"}` (the opening brace already eaten)
// and returns the pairs plus the remaining tail after the closing brace.
func parseLabels(s string) ([]labelPair, string, error) {
	var labels []labelPair
	seen := make(map[string]bool)
	for {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, "", fmt.Errorf("malformed label pair")
		}
		name := s[:eq]
		if !validLabelName(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		if seen[name] {
			return nil, "", fmt.Errorf("duplicate label %q", name)
		}
		seen[name] = true
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, "", fmt.Errorf("label %q value not quoted", name)
		}
		value, tail, err := parseQuoted(s[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %q: %w", name, err)
		}
		labels = append(labels, labelPair{name, value})
		s = tail
		if len(s) == 0 {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		switch s[0] {
		case ',':
			s = s[1:]
		case '}':
			return labels, s[1:], nil
		default:
			return nil, "", fmt.Errorf("unexpected %q after label value", s[0])
		}
	}
}

// parseQuoted consumes an escaped label value up to its closing quote.
func parseQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("trailing backslash")
			}
			switch s[i] {
			case '\\', '"':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", s[i])
			}
		case '\n':
			return "", "", fmt.Errorf("raw newline in label value")
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// labelKey canonicalises a label set (optionally dropping le) so
// histogram series can be grouped across bucket lines.
func labelKey(labels []labelPair, dropLe bool) string {
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		if dropLe && l.name == "le" {
			continue
		}
		parts = append(parts, l.name+"="+strconv.Quote(l.value))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func leOf(labels []labelPair) (string, bool) {
	for _, l := range labels {
		if l.name == "le" {
			return l.value, true
		}
	}
	return "", false
}

func validMetricName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
