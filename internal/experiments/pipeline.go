package experiments

import (
	"fmt"
	"time"

	"prestigebft/internal/harness"
)

// This file declares the replication-window sweep: throughput and latency as
// a function of the leader's pipeline depth W (core.Config.PipelineDepth).
// W=1 reproduces the original stop-and-wait protocol — one batch per
// Ordering+Commit round trip — so the sweep quantifies exactly what the
// sliding window buys on a latency-bound workload. The workload keeps β
// small relative to the client population so the leader always has full
// batches queued and the bottleneck is the commit round trip, not the
// offered load.

// PipelineDepths lists the window sizes the sweep measures.
var PipelineDepths = []int{1, 2, 4, 8}

// pipelineSweep declares one cell per window depth at n=4, m=32.
func pipelineSweep(scale Scale) *Figure {
	fig := &Figure{
		Name:  "Pipeline sweep: throughput vs replication window W (n=4, m=32)",
		Notes: "W=1 is the stop-and-wait baseline; committed-tx throughput should scale with W until the CPU or the offered load saturates",
	}
	warmup, span := 500*time.Millisecond, 1500*time.Millisecond
	clients, beta := 320, 40
	if scale == Full {
		span = 5 * time.Second
	}
	for _, w := range PipelineDepths {
		fig.Cells = append(fig.Cells, steadyCell(fmt.Sprintf("pb_W%d", w), harness.Options{
			Protocol: harness.PrestigeBFT, N: 4, Clients: clients, BatchSize: beta,
			PayloadSize: 32, Seed: 300 + int64(w),
			PipelineDepth: w,
		}, warmup, span))
	}
	fig.Finalize = func(rows []harness.Row) []harness.Row {
		byW := make(map[int]float64, len(rows))
		var sum float64
		for _, r := range rows {
			var w int
			fmt.Sscanf(r.Label, "pb_W%d", &w)
			byW[w] = r.Values["tps"]
			sum += r.Values["tps"]
		}
		if len(rows) > 0 {
			rows = append(rows, row("mean", "mean_tps", sum/float64(len(rows))))
		}
		if base := byW[1]; base > 0 {
			last := PipelineDepths[len(PipelineDepths)-1]
			rows = append(rows, row(
				fmt.Sprintf("speedup_W%d_over_W1", last),
				"x", byW[last]/base,
			))
		}
		return rows
	}
	return fig
}
