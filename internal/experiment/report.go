package experiment

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Report is a formatted experiment result: a titled table plus notes.
type Report struct {
	ID      string
	Title   string
	Columns []string   // column headers; Columns[0] labels the row names
	Rows    [][]string // each row starts with its label
	Notes   []string
}

// WriteTo renders the report as an aligned text table.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
			} else {
				fmt.Fprintf(&sb, "%*s", widths[i]+2, c)
			}
		}
		sb.WriteByte('\n')
	}
	line(r.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		// strings.Builder never fails; keep the error path honest anyway.
		return err.Error()
	}
	return sb.String()
}

// stallCell formats one measurement the way the paper's stacked bars read:
// total stall percentage with the (R/F/L) category split.
func stallCell(m Measurement) string {
	c := m.C
	return fmt.Sprintf("%5.2f (%4.2f/%4.2f/%4.2f)",
		c.TotalStallPct(),
		c.StallPct(stats.L2ReadAccess),
		c.StallPct(stats.BufferFull),
		c.StallPct(stats.LoadHazard))
}

// stallFigure builds the standard figure experiment: run the given
// configurations over the suite and report per-benchmark stall percentages.
func stallFigure(id, title string, specs func() []ConfigSpec, notes ...string) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Run: func(ctx context.Context, o Options) (*Report, error) {
			ss := specs()
			benches := o.benchmarks()
			matrix, err := RunMatrixCtx(ctx, benches, ss, o)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: id, Title: title, Notes: notes}
			rep.Notes = append(rep.Notes,
				"cells: total write-buffer stall % of run time (L2-read-access/buffer-full/load-hazard)")
			rep.addSpecTable("benchmark", benches, ss, func(bi, ci int) string {
				return stallCell(matrix[bi][ci])
			})
			return rep, nil
		},
	}
}

// addSpecTable appends the matrix report shape: a column named first, then
// one per spec label; a row per benchmark, its name, then cell(bi, ci) for
// each spec.
func (r *Report) addSpecTable(first string, benches []workload.Benchmark, specs []ConfigSpec, cell func(bi, ci int) string) {
	r.Columns = append(r.Columns, first)
	for _, s := range specs {
		r.Columns = append(r.Columns, s.Label)
	}
	for bi, b := range benches {
		row := []string{b.Name}
		for ci := range specs {
			row = append(row, cell(bi, ci))
		}
		r.Rows = append(r.Rows, row)
	}
}

func pct(f float64) string { return fmt.Sprintf("%.2f", 100*f) }
