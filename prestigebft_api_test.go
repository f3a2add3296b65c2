package prestigebft_test

import (
	"sort"
	"testing"
	"time"

	"prestigebft"
)

// TestPublicAPIQuickstart mirrors the README quick start through the public
// surface only.
func TestPublicAPIQuickstart(t *testing.T) {
	cluster := prestigebft.NewSimCluster(prestigebft.ClusterOptions{
		N: 4, Clients: 4, BatchSize: 4, Seed: 3,
		VerifySignatures: true,
	})
	cluster.Start()
	cluster.Run(2 * time.Second)
	if cluster.Metrics.TotalTxs == 0 {
		t.Fatal("quick start committed nothing")
	}
	if tps := cluster.Metrics.TPS(0, prestigebft.VirtualTime(2*time.Second)); tps <= 0 {
		t.Fatalf("TPS = %v", tps)
	}
}

// TestPublicAPIReputationEngine exercises the re-exported reputation types.
func TestPublicAPIReputationEngine(t *testing.T) {
	e := prestigebft.NewReputationEngine()
	res := e.CalcRP(6, prestigebft.ReputationSnapshot{
		V: 5, RP: 5, CI: 1, TI: 20, Penalties: []int64{1, 2, 3, 4, 5},
	})
	if res.RP != 5 || !res.Compensated {
		t.Fatalf("paper example 2 through public API: %+v", res)
	}
}

// TestPublicAPIKVHelpers round-trips the KV payload helpers.
func TestPublicAPIKVHelpers(t *testing.T) {
	kv := prestigebft.NewKVStore()
	tx := prestigebft.Transaction{Data: prestigebft.EncodeKVSet("k", []byte("v"))}
	if !kv.Apply(&tx) {
		t.Fatal("set rejected")
	}
	tx2 := prestigebft.Transaction{Data: prestigebft.EncodeKVDel("k")}
	if !kv.Apply(&tx2) {
		t.Fatal("del rejected")
	}
	if kv.Len() != 0 {
		t.Fatal("delete did not apply")
	}
}

// TestPublicAPIExperimentRegistry: the experiment runner surface works and
// rejects unknown names.
func TestPublicAPIExperimentRegistry(t *testing.T) {
	names := prestigebft.ExperimentNames()
	if len(names) < 11 {
		t.Fatalf("experiments = %d, want >= 11", len(names))
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("experiment names are not sorted: %v", names)
	}
	out, ok := prestigebft.Experiment("fig4c", false)
	if !ok || out == "" {
		t.Fatal("fig4c experiment failed")
	}
	if _, ok := prestigebft.Experiment("nope", false); ok {
		t.Fatal("unknown experiment accepted")
	}
}

// TestPublicAPIFaultInjection runs a Byzantine cluster through the public
// surface.
func TestPublicAPIFaultInjection(t *testing.T) {
	cluster := prestigebft.NewSimCluster(prestigebft.ClusterOptions{
		N: 4, Clients: 4, BatchSize: 4, Seed: 5,
		VerifySignatures: true,
		Faults: map[prestigebft.ServerID]prestigebft.FaultSpec{
			4: {Mode: prestigebft.FaultQuiet},
		},
	})
	cluster.Start()
	cluster.Run(2 * time.Second)
	if cluster.Metrics.TotalTxs == 0 {
		t.Fatal("no progress with one quiet server")
	}
}
