package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// ReadTrace parses a JSONL trace into its records, validating each line
// against the span schema (see Record) as it goes.
func ReadTrace(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("obsv: trace line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obsv: trace line %d: %w", line, err)
	}
	return recs, nil
}

// ValidateTrace checks a JSONL trace against the span schema: every line
// is a Record with a non-empty name, a unique non-zero id, end ≥ start, a
// consistent duration, a speculative attribute (an LM attempt run beside
// the search) only as "adopted" or "discarded", and a parent id that
// occurs in the trace (0 marks a root; at least one root must exist). It
// returns the span count.
func ValidateTrace(r io.Reader) (int, error) {
	recs, err := ReadTrace(r)
	if err != nil {
		return 0, err
	}
	return len(recs), ValidateRecords(recs)
}

// ValidateRecords is ValidateTrace over already-parsed records.
func ValidateRecords(recs []Record) error {
	if len(recs) == 0 {
		return fmt.Errorf("obsv: empty trace")
	}
	ids := make(map[uint64]bool, len(recs))
	for _, rec := range recs {
		if rec.Span == "" {
			return fmt.Errorf("obsv: span id %d has no name", rec.ID)
		}
		if rec.ID == 0 {
			return fmt.Errorf("obsv: span %q has id 0", rec.Span)
		}
		if ids[rec.ID] {
			return fmt.Errorf("obsv: duplicate span id %d (%q)", rec.ID, rec.Span)
		}
		ids[rec.ID] = true
		if rec.End.Before(rec.Start) {
			return fmt.Errorf("obsv: span %q (id %d) ends before it starts", rec.Span, rec.ID)
		}
		if rec.DurNS != rec.End.Sub(rec.Start).Nanoseconds() {
			return fmt.Errorf("obsv: span %q (id %d) dur_ns %d != end-start %d",
				rec.Span, rec.ID, rec.DurNS, rec.End.Sub(rec.Start).Nanoseconds())
		}
		if v, ok := rec.Attrs["speculative"]; ok && v != "adopted" && v != "discarded" {
			return fmt.Errorf("obsv: span %q (id %d) has speculative=%v, want adopted or discarded",
				rec.Span, rec.ID, v)
		}
	}
	roots := 0
	for _, rec := range recs {
		if rec.Parent == 0 {
			roots++
			continue
		}
		if !ids[rec.Parent] {
			return fmt.Errorf("obsv: span %q (id %d) references missing parent %d",
				rec.Span, rec.ID, rec.Parent)
		}
	}
	if roots == 0 {
		return fmt.Errorf("obsv: trace has no root span")
	}
	return nil
}
