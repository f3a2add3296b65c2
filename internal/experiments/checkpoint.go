package experiments

import (
	"fmt"
	"time"

	"prestigebft/internal/harness"
	"prestigebft/internal/scenario"
	"prestigebft/internal/types"
)

// This file declares the checkpoint sweep: late-joiner catch-up time and
// peak retained-ledger size as a function of the checkpoint interval and of
// how much history accumulates while the joiner is away. Without
// checkpoints (interval 0) a rejoining replica replays the entire missed
// history and every replica retains the full log, so both metrics grow
// linearly with history; with certified checkpoints the joiner installs the
// latest snapshot and replays only the retained tail, so catch-up time
// stays flat and ledger size stays O(interval) no matter how much history
// accumulated — the claim the committed BENCH trajectory pins run over run.

// CheckpointHistories lists the away-time spans the sweep measures: the
// history axis along which replay-based catch-up grows and snapshot-based
// catch-up must stay flat.
var CheckpointHistories = []time.Duration{2 * time.Second, 4 * time.Second, 8 * time.Second}

// CheckpointIntervals lists the swept intervals; 0 is the no-compaction
// baseline (full-history replay).
var CheckpointIntervals = []int{0, 32}

// A sweep cell runs catchUpWindow past the joiner's recovery, polling its
// height every catchUpPoll; catch-ups take 25–200 ms, and a cell that has
// not caught up by the end of the window reports -1.
const catchUpWindow, catchUpPoll = 2 * time.Second, 25 * time.Millisecond

// catchUpCell is one sweep cell: warm a 4-server cluster up, crash
// server 4, let the chain grow for `history`, recover it, and measure the
// virtual time until its chain reaches the head height observed at the
// moment of recovery. Also reports the blocks a healthy replica retained at
// that moment (the compaction bound) and whether the joiner caught up via a
// certified snapshot rather than replay.
func catchUpCell(label string, interval int, history time.Duration, seed int64) *scenario.Scenario {
	opts := harness.Options{
		N: 4, Clients: 8, BatchSize: 8, Seed: seed,
		ClientTimeout:      500 * time.Millisecond,
		CheckpointInterval: interval,
	}
	const warmup = 2 * time.Second // steady state before the outage
	recoverAt := warmup + history
	s := &scenario.Scenario{Name: label, Opts: opts, Warmup: warmup, Span: recoverAt + catchUpWindow,
		Events: []scenario.Event{
			{At: warmup, Action: scenario.Crash{Server: 4}},
			{At: recoverAt, Action: scenario.Recover{Server: 4}},
		},
	}
	s.Read = func(env scenario.Environment) func() []harness.Row {
		dep, met := env.Deployment(), env.Metrics()
		var head, joinerStart types.SeqNum
		var retained, snapshots int
		catchup := -1.0
		// Probes run before the timeline's events at the same instant: this
		// one reads the ledgers just before server 4 recovers.
		env.Schedule(recoverAt, func() {
			for id := types.ServerID(1); id <= 3; id++ {
				if h, _ := dep.ChainHeight(id); h > head {
					head = h
				}
			}
			retained, _ = dep.RetainedBlocks(1)
			joinerStart, _ = dep.ChainHeight(4)
		})
		for el := catchUpPoll; el <= catchUpWindow; el += catchUpPoll {
			env.Schedule(recoverAt+el, func() {
				if h, _ := dep.ChainHeight(4); catchup < 0 && h >= head {
					catchup, snapshots = el.Seconds()*1000, met.SnapshotInstalls
				}
			})
		}
		return func() []harness.Row {
			if catchup < 0 {
				snapshots = met.SnapshotInstalls
			}
			return []harness.Row{row(label,
				"catchup_ms", catchup,
				"gap_blocks", int(head-joinerStart),
				"retained_blocks", retained,
				"snapshot", snapshots,
			)}
		}
	}
	return s
}

// checkpointSweep declares the (interval × history) sweep.
func checkpointSweep(scale Scale) *Figure {
	fig := &Figure{
		Name:  "Checkpoint sweep: catch-up time and ledger size vs interval (n=4)",
		Notes: "ival0 replays full history (catchup_ms and retained_blocks grow with hist); ival>0 installs the certified snapshot (both flat at O(interval))",
	}
	intervals := CheckpointIntervals
	histories := CheckpointHistories
	if scale == Full {
		intervals = []int{0, 8, 32, 128}
		histories = append(histories, 16*time.Second)
	}
	for _, ival := range intervals {
		for _, hist := range histories {
			label := fmt.Sprintf("ival%d_hist%ds", ival, int(hist.Seconds()))
			fig.Cells = append(fig.Cells, catchUpCell(label, ival, hist, 400+int64(ival)+int64(hist.Seconds())))
		}
	}
	fig.Finalize = func(rows []harness.Row) []harness.Row {
		// Flatness summary per interval: catch-up at the longest history
		// over the shortest. Replay grows (ratio ≫ 1); snapshots stay flat.
		byLabel := make(map[string]float64, len(rows))
		for _, r := range rows {
			byLabel[r.Label] = r.Values["catchup_ms"]
		}
		first, last := histories[0], histories[len(histories)-1]
		for _, ival := range intervals {
			lo := byLabel[fmt.Sprintf("ival%d_hist%ds", ival, int(first.Seconds()))]
			hi := byLabel[fmt.Sprintf("ival%d_hist%ds", ival, int(last.Seconds()))]
			if lo > 0 && hi > 0 {
				rows = append(rows, row(
					fmt.Sprintf("ival%d_catchup_growth_h%d_over_h%d", ival, int(last.Seconds()), int(first.Seconds())),
					"x", hi/lo,
				))
			}
		}
		return rows
	}
	return fig
}
