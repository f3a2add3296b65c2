package harness_test

import (
	"testing"
	"time"

	"prestigebft/internal/core"
	"prestigebft/internal/harness"
)

// TestNormalOperation: Prosecutor commits under client load.
func TestNormalOperation(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: harness.Prosecutor,
		N:        4, Clients: 8, BatchSize: 8, Seed: 6,
		VerifySignatures: true,
	})
	c.Start()
	c.Run(3 * time.Second)
	if c.Metrics.TotalTxs == 0 {
		t.Fatal("Prosecutor committed nothing")
	}
}

// TestMonotonePenalties: Prosecutor's penalties never decrease — the
// defining difference from PrestigeBFT's compensating reputation engine.
// Under continuous rotation, every elected server's penalty only grows.
func TestMonotonePenalties(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: harness.Prosecutor,
		N:        4, Clients: 4, BatchSize: 4, Seed: 13,
		VerifySignatures: true,
		ViewPolicy:       time.Second,
		TimeoutMin:       50 * time.Millisecond,
		TimeoutMax:       150 * time.Millisecond,
	})
	c.Start()
	c.Run(10 * time.Second)
	if c.Metrics.Elections < 2 {
		t.Fatalf("elections = %d, want >= 2", c.Metrics.Elections)
	}
	// Replay each server's rp series from the traces: must be monotone
	// non-decreasing (no compensation ever).
	for id, series := range c.Metrics.RPSeries {
		for i := 1; i < len(series); i++ {
			if series[i].RP < series[i-1].RP {
				t.Fatalf("server %d penalty decreased: %d -> %d (Prosecutor never compensates)",
					id, series[i-1].RP, series[i].RP)
			}
		}
	}
	// And elected servers' penalties must actually have grown.
	node := c.Replicas[0].(*core.Node)
	grew := false
	for id := range c.Metrics.LeaderShare() {
		if node.ReputationPenalty(id) > 1 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("no elected server accumulated penalty under rotation")
	}
}

// TestProsecutorReadsPrestigeOptions: a Prosecutor node is built from
// PrestigeBFT's configuration, so the Options fields that configuration
// reads reach it — the checkpoint interval and the replication window.
func TestProsecutorReadsPrestigeOptions(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: harness.Prosecutor,
		N:        4, Clients: 16, BatchSize: 4, Seed: 6,
		PipelineDepth:      1,
		CheckpointInterval: 8,
	})
	c.Start()
	peak := 0
	for i := 0; i < 300; i++ {
		c.Run(10 * time.Millisecond)
		for _, n := range c.Nodes {
			_, inflight, _, _ := n.WindowStats()
			peak = max(peak, inflight)
		}
	}
	if c.Metrics.TotalTxs == 0 {
		t.Fatal("Prosecutor committed nothing")
	}
	if c.Metrics.Checkpoints == 0 {
		t.Error("CheckpointInterval 8: no checkpoint certificate assembled")
	}
	if peak > 1 {
		t.Errorf("PipelineDepth 1: %d instances in flight at once", peak)
	}
}
