package experiments

import (
	"fmt"

	"prestigebft/internal/harness"
	"prestigebft/internal/reputation"
	"prestigebft/internal/types"
)

// ablation isolates the design choice that separates
// PrestigeBFT's reputation engine from Prosecutor's monotone penalization:
// the compensation terms δtx/δvc (Eqs. 2-4). It replays two behavioral
// traces through engines with Cδ = 1 (PrestigeBFT) and Cδ = 0 (ablated,
// Prosecutor semantics):
//
//   - an attacker that grabs every view without replicating — both engines
//     must ratchet its penalty identically (compensation never shields
//     behavior with δtx = 0), and the refresh quorum (2f+1 servers above
//     π) is out of an attacker coalition's reach;
//   - a correct server in a healthy rotation (leading every 13th view
//     while the cluster replicates): compensation slows its penalty growth
//     — Eq. 2 intentionally demands *increasing* replication per
//     compensation, so even correct servers drift in the long run — and
//     the §4.2.5 refresh (modeled at π=8, reachable because all correct
//     servers drift together) bounds it. The ablated engine
//     (Prosecutor-style monotone penalties, no compensation, no refresh)
//     grows without bound, eventually pricing correct servers out of
//     leadership.
func ablation(Scale) *Figure {
	return &Figure{
		Name:  "Ablation: compensation+refresh (PrestigeBFT) vs monotone penalties (Prosecutor)",
		Notes: "attacker trajectories must match (and never refresh); correct trajectories: full stays bounded by π, ablated grows without bound",

		Finalize: ablationRows,
	}
}

func ablationRows([]harness.Row) []harness.Row {
	full := &reputation.Engine{CDelta: reputation.DefaultCDelta}
	ablated := &reputation.Engine{CDelta: 0}

	// replay simulates `rounds` reigns. Every reign the server campaigns
	// for the next view (+1 penalization). Between reigns, `interim` other
	// views pass (its penalty recorded unchanged in each vcBlock) and the
	// cluster commits 50 txBlocks per view. With refresh enabled, crossing
	// π resets rp and ci to the initial values (§4.2.5) — legitimate only
	// for correct servers, which can gather the 2f+1 Ref quorum.
	replay := func(e *reputation.Engine, interim, rounds int, refreshPi int64) []int64 {
		rp, ci := int64(1), int64(1)
		ti := int64(1)
		penalties := []int64{1}
		out := []int64{1}
		v := types.View(1)
		for k := 0; k < rounds; k++ {
			for j := 0; j < interim; j++ {
				v++
				ti += 50
				penalties = append(penalties, rp)
			}
			r := e.CalcRP(v+1, reputation.Snapshot{V: v, RP: rp, CI: ci, TI: ti, Penalties: penalties})
			rp, ci = r.RP, r.CI
			if refreshPi > 0 && rp > refreshPi {
				rp, ci = 1, 1
			}
			v++
			penalties = append(penalties, rp)
			out = append(out, rp)
		}
		return out
	}

	const rounds = 12
	attackFull := replay(full, 0, rounds, 0) // attackers cannot refresh
	attackAblated := replay(ablated, 0, rounds, 0)
	correctFull := replay(full, 12, rounds, 8) // correct servers can
	correctAblated := replay(ablated, 12, rounds, 0)

	var rows []harness.Row
	for k := 0; k <= rounds; k += 3 {
		rows = append(rows, row(
			fmt.Sprintf("round%02d", k),
			"attacker_rp_full", float64(attackFull[k]),
			"attacker_rp_ablated", float64(attackAblated[k]),
			"correct_rp_full", float64(correctFull[k]),
			"correct_rp_ablated", float64(correctAblated[k]),
		))
	}
	return rows
}
