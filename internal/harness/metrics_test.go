package harness

import (
	"reflect"
	"testing"
	"time"

	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// TestTimelineBuckets pins the bucket edges: ⌈until/window⌉ windows, each
// closed at its start and open at its end, and nothing at or past until.
func TestTimelineBuckets(t *testing.T) {
	var now sim.Time
	m := NewMetrics(func() sim.Time { return now })
	seq := types.SeqNum(0)
	commit := func(at time.Duration, txs int) {
		now = sim.Duration(at)
		seq++
		m.OnCommit(&types.TxBlock{Header: types.TxBlockHeader{N: seq}, Txs: make([]types.Transaction, txs)})
	}
	commit(0, 10)                             // first window, at its start
	commit(15*time.Second-time.Nanosecond, 5) // first window, at its end
	commit(15*time.Second, 30)                // second window, at its start
	commit(45*time.Second-time.Nanosecond, 15)
	commit(45*time.Second, 99) // at until: outside the run

	got := m.Timeline(sim.Duration(45*time.Second), 15*time.Second)
	if want := []float64{1, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Timeline(45s, 15s) = %v, want %v", got, want)
	}
	// A run that ends mid-window still gets the partial window.
	if got := m.Timeline(sim.Duration(40*time.Second), 15*time.Second); len(got) != 3 {
		t.Errorf("Timeline(40s, 15s) has %d windows, want 3", len(got))
	}
}
