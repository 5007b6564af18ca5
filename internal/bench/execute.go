package bench

// Programmatic entry points: everything cmd/ompss-bench prints and
// writes is produced here, so a resident service (internal/serve) can run
// the same experiments in-process and memoize the byte-exact artifacts.

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ExecResult is everything one experiment execution produced, encoded in
// the deterministic formats the CLI and the serving layer share. For a
// deterministic experiment (everything except stress, whose values are
// host wall-clock measurements) two executions of the same Options yield
// byte-identical CSV.
type ExecResult struct {
	// Rows are the grid rows in grid order, after GridPoint filtering.
	Rows []Row
	// CSV is the rows in exactly the encoding `ompss-bench -csv` writes:
	// an experiment,config,value,unit header plus one line per row.
	CSV []byte
	// TraceJSON is the Perfetto trace of the experiment's designated
	// grid point, when Options.Trace was armed and the experiment has
	// one (fig10); nil otherwise.
	TraceJSON []byte
}

// Execute runs the named experiment and packages the result. It is the
// library form of cmd/ompss-bench's main loop: same experiment registry,
// same row order, same CSV bytes.
func Execute(name string, o Options) (*ExecResult, error) {
	e, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	rows, err := e.Run(o)
	if err != nil {
		return nil, err
	}
	if o.GridPoint != "" {
		kept := make([]Row, 0, 1)
		for _, r := range rows {
			if r.Config == o.GridPoint {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("%s: grid point %q matched no row", name, o.GridPoint)
		}
		rows = kept
	}
	res := &ExecResult{Rows: rows}
	var buf bytes.Buffer
	if err := EncodeCSV(&buf, rows); err != nil {
		return nil, fmt.Errorf("%s: encode csv: %w", name, err)
	}
	res.CSV = append([]byte(nil), buf.Bytes()...)
	if o.Trace != nil && o.Trace.Len() > 0 {
		buf.Reset()
		if err := o.Trace.WritePerfetto(&buf); err != nil {
			return nil, fmt.Errorf("%s: encode trace: %w", name, err)
		}
		res.TraceJSON = append([]byte(nil), buf.Bytes()...)
	}
	return res, nil
}

// EncodeCSV writes rows as experiment,config,value,unit lines under a
// header — the exact bytes `ompss-bench -csv` has always produced, so
// cached and freshly written files compare with cmp.
func EncodeCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "config", "value", "unit"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.Experiment, r.Config, strconv.FormatFloat(r.Value, 'f', -1, 64), r.Unit}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
