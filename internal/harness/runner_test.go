package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prestigebft/internal/sim"
)

// smallGrid is a miniature figure-style grid: four independent cluster
// cells, each with its own seed, measured as steady-state throughput and
// mean latency.
func smallGrid(workers int) *Grid {
	g := &Grid{
		Name:    "test grid",
		Notes:   "determinism fixture",
		Workers: workers,
	}
	for i := 0; i < 4; i++ {
		g.Cells = append(g.Cells, func() []Row {
			c := NewCluster(Options{N: 4, Clients: 8, BatchSize: 8, Seed: int64(100 + i)})
			c.Start()
			c.Run(500 * time.Millisecond)
			c.CollectClientStats()
			tps := c.Metrics.TPS(sim.Duration(100*time.Millisecond), sim.Duration(500*time.Millisecond))
			return []Row{NewRow(fmt.Sprintf("cell%d", i), "tps", tps, "latency_ms", c.Metrics.MeanLatency())}
		})
	}
	return g
}

// TestGridParallelDeterminism: the same grid run with 1 worker and with N
// workers must yield byte-identical Result JSON — parallel execution may
// change only the wall clock, never the values or their order.
func TestGridParallelDeterminism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	seq := smallGrid(1).Run()
	par := smallGrid(8).Run()
	js, err := json.Marshal(seq)
	if err != nil {
		t.Fatalf("sequential JSON: %v", err)
	}
	jp, err := json.Marshal(par)
	if err != nil {
		t.Fatalf("parallel JSON: %v", err)
	}
	if !bytes.Equal(js, jp) {
		t.Fatalf("parallel run diverged from sequential:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", js, jp)
	}
	if !json.Valid(js) {
		t.Fatal("Result encoded as invalid JSON")
	}
	// The cells did real work (a dead simulation would also be "deterministic").
	for _, r := range seq.Rows {
		if r.Values["tps"] <= 0 {
			t.Errorf("cell %s measured no throughput", r.Label)
		}
	}
}

// TestGridRowOrder: rows come back in cell order (with multi-row cells kept
// contiguous) no matter how the pool interleaves completions. The staggered
// sleeps force out-of-order completion.
func TestGridRowOrder(t *testing.T) {
	t.Parallel()
	g := &Grid{Name: "order", Workers: 8}
	const cells = 8
	for i := 0; i < cells; i++ {
		g.Cells = append(g.Cells, func() []Row {
			// Later cells finish first.
			time.Sleep(time.Duration(cells-i) * 5 * time.Millisecond)
			return []Row{
				NewRow(fmt.Sprintf("spec%d_a", i), "v", i),
				NewRow(fmt.Sprintf("spec%d_b", i), "v", i),
			}
		})
	}
	res := g.Run()
	if len(res.Rows) != 2*cells {
		t.Fatalf("rows = %d, want %d", len(res.Rows), 2*cells)
	}
	for i, r := range res.Rows {
		want := fmt.Sprintf("spec%d_%c", i/2, "ab"[i%2])
		if r.Label != want {
			t.Errorf("row %d = %q, want %q", i, r.Label, want)
		}
		if r.Values["v"] != float64(i/2) {
			t.Errorf("row %d value = %v, want %d", i, r.Values["v"], i/2)
		}
	}
}

// TestGridFinalize: Finalize sees the full ordered row set and its output
// replaces the rows.
func TestGridFinalize(t *testing.T) {
	t.Parallel()
	g := &Grid{Name: "finalize", Workers: 4}
	for i := 0; i < 4; i++ {
		g.Cells = append(g.Cells, func() []Row {
			return []Row{NewRow(fmt.Sprintf("s%d", i), "v", i+1)}
		})
	}
	g.Finalize = func(rows []Row) []Row {
		var sum float64
		for _, r := range rows {
			sum += r.Values["v"]
		}
		return append(rows, NewRow("total", "v", sum))
	}
	res := g.Run()
	last := res.Rows[len(res.Rows)-1]
	if last.Label != "total" || last.Values["v"] != 10 {
		t.Fatalf("finalize row = %+v, want total v=10", last)
	}
}

// TestGridWorkerCap: the pool never runs more specs concurrently than its
// worker bound.
func TestGridWorkerCap(t *testing.T) {
	t.Parallel()
	var active, peak int32
	g := &Grid{Name: "cap", Workers: 2}
	for i := 0; i < 10; i++ {
		g.Cells = append(g.Cells, func() []Row {
			n := atomic.AddInt32(&active, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt32(&active, -1)
			return []Row{NewRow(fmt.Sprintf("s%d", i), "v", 1)}
		})
	}
	g.Run()
	if p := atomic.LoadInt32(&peak); p > 2 {
		t.Fatalf("peak concurrency = %d, want <= 2", p)
	}
}

// TestResultRendering checks the table renderer used by every experiment.
func TestResultRendering(t *testing.T) {
	res := &Result{
		Name:  "demo",
		Notes: "note",
		Rows: []Row{
			NewRow("a", "tps", 1234.5, "latency_ms", 20*time.Millisecond),
			NewRow("b", "count", 7),
		},
	}
	s := res.String()
	for _, want := range []string{"== demo ==", "note", "tps=1234.5", "latency_ms=20", "count=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered result missing %q:\n%s", want, s)
		}
	}
}
