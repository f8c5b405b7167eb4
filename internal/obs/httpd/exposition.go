package httpd

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CheckExposition validates a Prometheus text-exposition stream (the
// /metrics payload) promlint-style: metric-name and label syntax, HELP/TYPE
// placement, parseable sample values, and histogram structure (cumulative
// le-bounds ending in +Inf, with matching _sum and _count). It exists so the
// smoke harness and the handler tests fail on a malformed line the moment
// the renderer drifts, without importing a Prometheus client library.
func CheckExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grow on demand up to a 1 MiB line
	c := expoChecker{
		typed:  map[string]string{},
		helped: map[string]bool{},
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if err := c.line(sc.Text()); err != nil {
			return fmt.Errorf("exposition line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := c.finishHistogram(); err != nil {
		return err
	}
	if lineNo == 0 {
		return fmt.Errorf("empty exposition")
	}
	return nil
}

type expoChecker struct {
	typed  map[string]string // family -> declared type
	helped map[string]bool
	seen   map[string]bool // family has samples (reset per family is not needed)

	// In-flight histogram child state: buckets must be cumulative and end
	// in le="+Inf"; _sum/_count must follow.
	histFamily string
	histChild  string // label signature minus le
	histPrev   float64
	histLast   float64 // +Inf bucket count
	histInf    bool
	histDone   int // 0 buckets open, 1 saw _sum, 2 saw _count
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (c *expoChecker) line(s string) error {
	if s == "" {
		return fmt.Errorf("blank line")
	}
	if strings.HasPrefix(s, "#") {
		return c.comment(s)
	}
	return c.sample(s)
}

func (c *expoChecker) comment(s string) error {
	fields := strings.SplitN(s, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return fmt.Errorf("malformed comment %q", s)
	}
	name := fields[2]
	if !validMetricName(name) {
		return fmt.Errorf("invalid metric name %q in %q", name, s)
	}
	switch fields[1] {
	case "HELP":
		if c.helped[name] {
			return fmt.Errorf("duplicate HELP for %q", name)
		}
		c.helped[name] = true
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("TYPE without a type: %q", s)
		}
		typ := fields[3]
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q for %q", typ, name)
		}
		if _, dup := c.typed[name]; dup {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		if c.seen[name] {
			return fmt.Errorf("TYPE for %q after its samples", name)
		}
		c.typed[name] = typ
	default:
		return fmt.Errorf("unknown comment keyword %q", fields[1])
	}
	return nil
}

// splitSample splits "name{labels} value" into its parts, validating the
// label block's name="value" syntax (with \\, \" and \n escapes).
func splitSample(s string) (name, labels, value string, err error) {
	rest := s
	if i := strings.IndexByte(s, '{'); i >= 0 {
		name = s[:i]
		j := strings.LastIndexByte(s, '}')
		if j < i {
			return "", "", "", fmt.Errorf("unterminated label block in %q", s)
		}
		labels = s[i+1 : j]
		rest = strings.TrimSpace(s[j+1:])
	} else {
		k := strings.IndexByte(s, ' ')
		if k < 0 {
			return "", "", "", fmt.Errorf("no value in %q", s)
		}
		name = s[:k]
		rest = strings.TrimSpace(s[k+1:])
	}
	// Timestamps ("value ts") are legal; take the first token as the value.
	if k := strings.IndexByte(rest, ' '); k >= 0 {
		rest = rest[:k]
	}
	return name, labels, rest, nil
}

// parseLabels walks a label block, returning the pairs in order.
func parseLabels(block string) ([][2]string, error) {
	var out [][2]string
	i := 0
	for i < len(block) {
		eq := strings.IndexByte(block[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", block)
		}
		lname := block[i : i+eq]
		if !validMetricName(lname) {
			return nil, fmt.Errorf("invalid label name %q", lname)
		}
		i += eq + 1
		if i >= len(block) || block[i] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", block)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(block) {
			ch := block[i]
			if ch == '\\' {
				if i+1 >= len(block) {
					return nil, fmt.Errorf("dangling escape in %q", block)
				}
				val.WriteByte(block[i+1])
				i += 2
				continue
			}
			if ch == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(ch)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value in %q", block)
		}
		out = append(out, [2]string{lname, val.String()})
		if i < len(block) {
			if block[i] != ',' {
				return nil, fmt.Errorf("expected ',' between labels in %q", block)
			}
			i++
		}
	}
	return out, nil
}

// family maps a sample's metric name back to its declared family, folding
// the histogram suffixes.
func (c *expoChecker) family(name string) (fam, suffix string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && c.typed[base] == "histogram" {
			return base, suf
		}
	}
	return name, ""
}

func (c *expoChecker) sample(s string) error {
	name, labelBlock, value, err := splitSample(s)
	if err != nil {
		return err
	}
	if !validMetricName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return fmt.Errorf("unparsable value %q for %q", value, name)
	}
	labels, err := parseLabels(labelBlock)
	if err != nil {
		return err
	}
	fam, suffix := c.family(name)
	typ, ok := c.typed[fam]
	if !ok {
		return fmt.Errorf("sample %q without a TYPE declaration", name)
	}
	if !c.helped[fam] {
		return fmt.Errorf("sample %q without a HELP declaration", name)
	}
	if c.seen == nil {
		c.seen = map[string]bool{}
	}
	c.seen[fam] = true
	if typ == "counter" && (v < 0 || !strings.HasSuffix(fam, "_total")) {
		return fmt.Errorf("counter %q must be non-negative and end in _total", name)
	}
	if typ != "histogram" {
		if suffix != "" {
			return fmt.Errorf("suffix sample %q on non-histogram family", name)
		}
		return c.finishHistogram()
	}
	return c.histSample(fam, suffix, labels, v)
}

// histSample tracks one histogram child's bucket run: le must be present and
// ascending, counts cumulative, the run closed by +Inf then _sum and _count
// (with _count equal to the +Inf bucket).
func (c *expoChecker) histSample(fam, suffix string, labels [][2]string, v float64) error {
	le := ""
	var rest []string
	for _, l := range labels {
		if l[0] == "le" {
			le = l[1]
			continue
		}
		rest = append(rest, l[0]+"="+l[1])
	}
	child := fam + "{" + strings.Join(rest, ",") + "}"
	switch suffix {
	case "_bucket":
		if le == "" {
			return fmt.Errorf("%s_bucket without le label", fam)
		}
		if c.histFamily != fam || c.histChild != child || c.histDone != 0 {
			if err := c.finishHistogram(); err != nil {
				return err
			}
			c.histFamily, c.histChild, c.histPrev = fam, child, -1
		}
		if c.histInf {
			return fmt.Errorf("%s: bucket after le=\"+Inf\"", child)
		}
		if v < c.histPrev {
			return fmt.Errorf("%s: non-cumulative buckets (%g after %g)", child, v, c.histPrev)
		}
		c.histPrev = v
		if le == "+Inf" {
			c.histInf, c.histLast = true, v
		}
	case "_sum":
		if c.histFamily != fam || c.histChild != child || !c.histInf || c.histDone != 0 {
			return fmt.Errorf("%s_sum without a closed bucket run", fam)
		}
		c.histDone = 1
	case "_count":
		if c.histFamily != fam || c.histChild != child || c.histDone != 1 {
			return fmt.Errorf("%s_count out of order", fam)
		}
		if v != c.histLast {
			return fmt.Errorf("%s: _count %g != le=\"+Inf\" bucket %g", child, v, c.histLast)
		}
		c.histFamily, c.histChild, c.histInf, c.histDone = "", "", false, 0
	default:
		return fmt.Errorf("bare sample %q on histogram family %s", suffix, fam)
	}
	return nil
}

// finishHistogram errors if a histogram child's run was left open.
func (c *expoChecker) finishHistogram() error {
	if c.histFamily != "" {
		return fmt.Errorf("%s: histogram run not closed by _sum/_count", c.histChild)
	}
	return nil
}
