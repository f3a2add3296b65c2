package experiments

import "testing"

// TestAblationCompensation pins the ablation's two claims: attackers are
// penalized identically with or without compensation, while correct leaders
// diverge — compensation keeps them at the floor, the ablated engine
// punishes legitimate reigns.
func TestAblationCompensation(t *testing.T) {
	res, _ := ablation(Quick).Run()
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Values["attacker_rp_full"] != last.Values["attacker_rp_ablated"] {
		t.Errorf("attacker trajectories diverged: full=%v ablated=%v",
			last.Values["attacker_rp_full"], last.Values["attacker_rp_ablated"])
	}
	if last.Values["attacker_rp_full"] < 10 {
		t.Errorf("attacker penalty did not ratchet: %v", last.Values["attacker_rp_full"])
	}
	if full := last.Values["correct_rp_full"]; full > 8 {
		t.Errorf("correct leader unbounded despite compensation+refresh: rp=%v (π=8)", full)
	}
	if abl := last.Values["correct_rp_ablated"]; abl < 10 {
		t.Errorf("ablated engine failed to punish correct reigns: rp=%v (should be monotone)", abl)
	}
	// Compensation never helps the attacker more than the correct server:
	// at every reported round full-correct ≤ ablated-correct.
	for _, r := range res.Rows {
		if r.Values["correct_rp_full"] > r.Values["correct_rp_ablated"] {
			t.Errorf("%s: compensation made things worse (%v > %v)",
				r.Label, r.Values["correct_rp_full"], r.Values["correct_rp_ablated"])
		}
	}
}
