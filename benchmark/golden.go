package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// row is one line of an ompss-bench CSV. Value keeps the exact text so a
// comparison is of what the program printed, not of a re-parsed float.
type row struct {
	Experiment, Config, Value, Unit string
}

func (r row) float() (float64, error) { return strconv.ParseFloat(r.Value, 64) }

// parseCSV reads "experiment,config,value,unit" rows after the header.
func parseCSV(r io.Reader) ([]row, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 || recs[0][0] != "experiment" {
		return nil, fmt.Errorf("missing experiment,config,value,unit header")
	}
	rows := make([]row, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		rows = append(rows, row{rec[0], rec[1], rec[2], rec[3]})
	}
	return rows, nil
}

func readCSVFile(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := parseCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// compareRows checks got against want row for row, in order. Every golden
// row is one attempted operation; a row that differs or is missing fails,
// and so does each row got has beyond the golden. With hostClock set the
// value column is exempt (it is wall-clock throughput) but must still be a
// positive number.
func compareRows(got, want []row, hostClock bool) (attempted, failed int, first string) {
	note := func(format string, args ...any) {
		failed++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	for i, w := range want {
		attempted++
		if i >= len(got) {
			note("row %d %q missing", i+1, w.Config)
			continue
		}
		g := got[i]
		if hostClock {
			v, err := g.float()
			if g.Experiment != w.Experiment || g.Config != w.Config || g.Unit != w.Unit || err != nil || v <= 0 {
				note("row %d: got %v, want %s,%s,<positive>,%s", i+1, g, w.Experiment, w.Config, w.Unit)
			}
		} else if g != w {
			note("row %d: got %v, want %v", i+1, g, w)
		}
	}
	for i := len(want); i < len(got); i++ {
		attempted++
		note("row %d %q not in the golden", i+1, got[i].Config)
	}
	return attempted, failed, first
}

// values parses every row's value column.
func values(rows []row) ([]float64, error) {
	out := make([]float64, len(rows))
	for i, r := range rows {
		v, err := r.float()
		if err != nil {
			return nil, fmt.Errorf("row %q: %w", r.Config, err)
		}
		out[i] = v
	}
	return out, nil
}
