package experiments

import (
	"prestigebft/internal/harness"
	"prestigebft/internal/reputation"
	"prestigebft/internal/types"
)

// fig4cRows evaluates the five behavior scenarios of Figures 4b/4c
// through the real reputation engine.
func fig4cRows([]harness.Row) []harness.Row {
	e := reputation.New()
	p5 := []int64{1, 2, 3, 4}
	for i := 0; i < 10; i++ {
		p5 = append(p5, 5)
	}
	cases := []struct {
		label   string
		newView types.View
		snap    reputation.Snapshot
	}{
		{"1: leader V1-V5, no replication", 6, reputation.Snapshot{V: 5, RP: 5, CI: 1, TI: 1, Penalties: []int64{1, 2, 3, 4, 5}}},
		{"2: replicated 20 txBlocks in V5", 6, reputation.Snapshot{V: 5, RP: 5, CI: 1, TI: 20, Penalties: []int64{1, 2, 3, 4, 5}}},
		{"3: ci=20 ti=50, campaign V7", 7, reputation.Snapshot{V: 6, RP: 5, CI: 20, TI: 50, Penalties: []int64{1, 2, 3, 4, 5, 5}}},
		{"4: ci=20 ti=100, campaign V7", 7, reputation.Snapshot{V: 6, RP: 5, CI: 20, TI: 100, Penalties: []int64{1, 2, 3, 4, 5, 5}}},
		{"5: follower V7-V14, campaign V15", 15, reputation.Snapshot{V: 14, RP: 5, CI: 20, TI: 50, Penalties: p5}},
	}
	out := make([]harness.Row, 0, len(cases))
	for _, c := range cases {
		r := e.CalcRP(c.newView, c.snap)
		out = append(out, row(c.label,
			"ci", float64(c.snap.CI), "ti", float64(c.snap.TI),
			"dtx", r.DeltaTx, "dvc", r.DeltaVc, "delta", r.Delta,
			"rp_new", float64(r.RP)))
	}
	return out
}
