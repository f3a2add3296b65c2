package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// This file is the parallel grid engine behind every figure and scenario
// suite. A Grid is an ordered list of independent cells; each cell builds
// its own world (own sim.Scheduler, own seeded RNG), so cells are
// deterministic in isolation and safe to execute concurrently. Grid.Run fans
// the cells out over a worker pool and reassembles the rows in cell order,
// making the Result byte-identical no matter how many workers ran it or in
// which order the cells finished.

// Workers is the package-default worker-pool size for Grid.Run when a Grid
// does not set its own. Zero means runtime.NumCPU(). The bench CLI exposes
// it as -workers; set it to 1 to reproduce the strictly sequential order of
// execution (results are identical either way).
var Workers int

// Row is one line of an experiment result table.
type Row struct {
	Label  string             `json:"label"`
	Values map[string]float64 `json:"values"`
	Order  []string           `json:"order"`
}

// NewRow builds a row from alternating key, value pairs. A value is a
// float64, an int, or a time.Duration (recorded in whole milliseconds).
func NewRow(label string, kv ...any) Row {
	r := Row{Label: label, Values: make(map[string]float64)}
	for i := 0; i+1 < len(kv); i += 2 {
		k := kv[i].(string)
		var v float64
		switch x := kv[i+1].(type) {
		case float64:
			v = x
		case int:
			v = float64(x)
		case time.Duration:
			v = float64(x.Milliseconds())
		}
		r.Values[k] = v
		r.Order = append(r.Order, k)
	}
	return r
}

// Result is a rendered experiment outcome. Its JSON is deterministic (rows
// in cell order, value maps sorted) at any worker count.
type Result struct {
	Name  string `json:"name"`
	Notes string `json:"notes,omitempty"`
	Rows  []Row  `json:"rows"`
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Name)
	if r.Notes != "" {
		fmt.Fprintf(&b, "%s\n", r.Notes)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-34s", row.Label)
		for _, k := range row.Order {
			fmt.Fprintf(&b, "  %s=%.6g", k, row.Values[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Grid is an ordered set of self-contained cells, each building whatever it
// runs and returning its rows in order, rendered as one Result.
type Grid struct {
	Name  string
	Notes string
	Cells []func() []Row

	// Workers bounds this grid's pool; zero defers to the package default.
	Workers int

	// Finalize post-processes the ordered row set after every cell has run —
	// cross-cell work like best-point extraction (peak table) or
	// normalization against a baseline cell (Figure 11).
	Finalize func(rows []Row) []Row
}

// Run executes every cell on a worker pool and returns the assembled Result.
// Rows appear in cell order regardless of completion order; running with 1
// worker or N yields identical results.
func (g *Grid) Run() *Result {
	workers := g.Workers
	if workers == 0 {
		workers = Workers
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(g.Cells) {
		workers = len(g.Cells)
	}

	perCell := make([][]Row, len(g.Cells))
	if workers <= 1 {
		for i, cell := range g.Cells {
			perCell[i] = cell()
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					perCell[i] = g.Cells[i]()
				}
			}()
		}
		for i := range g.Cells {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	res := &Result{Name: g.Name, Notes: g.Notes}
	for _, rows := range perCell {
		res.Rows = append(res.Rows, rows...)
	}
	if g.Finalize != nil {
		res.Rows = g.Finalize(res.Rows)
	}
	return res
}
