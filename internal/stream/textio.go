package stream

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text ingestion for log-style feeds: one update per line as
// "value[,weight]" (weight defaults to 1), with '#' comments and blank
// lines skipped. This is the interchange format for piping existing logs
// into the tools without converting to the binary SKS1 format first.

// PipeText streams text-format updates from r into sinks without
// materializing them, returning the number applied. A value outside
// [0, domain) is an error naming its line, as it is for an SKS1 record
// or an online update: no skim over [0, domain) could extract it.
func PipeText(r io.Reader, domain uint64, sinks ...Sink) (int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	var n int64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		u, err := parseTextUpdate(text)
		if err == nil && u.Value >= domain {
			err = fmt.Errorf("value %d outside domain [0,%d)", u.Value, domain)
		}
		if err != nil {
			return n, fmt.Errorf("stream: line %d: %w", line, err)
		}
		for _, s := range sinks {
			s.Update(u.Value, u.Weight)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("stream: reading text: %w", err)
	}
	return n, nil
}

// WriteText renders updates one per line; weight-1 inserts are written
// bare for compactness.
func WriteText(w io.Writer, updates []Update) error {
	bw := bufio.NewWriter(w)
	for _, u := range updates {
		var err error
		if u.Weight == 1 {
			_, err = fmt.Fprintf(bw, "%d\n", u.Value)
		} else {
			_, err = fmt.Fprintf(bw, "%d,%d\n", u.Value, u.Weight)
		}
		if err != nil {
			return fmt.Errorf("stream: writing text: %w", err)
		}
	}
	return bw.Flush()
}

func parseTextUpdate(text string) (Update, error) {
	valuePart, weightPart, hasWeight := strings.Cut(text, ",")
	v, err := strconv.ParseUint(strings.TrimSpace(valuePart), 10, 64)
	if err != nil {
		return Update{}, fmt.Errorf("bad value %q", valuePart)
	}
	w := int64(1)
	if hasWeight {
		w, err = strconv.ParseInt(strings.TrimSpace(weightPart), 10, 64)
		if err != nil {
			return Update{}, fmt.Errorf("bad weight %q", weightPart)
		}
	}
	return Update{Value: v, Weight: w}, nil
}
