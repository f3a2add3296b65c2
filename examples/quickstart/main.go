// Quickstart: spin up a simulated 4-server PrestigeBFT cluster with eight
// closed-loop clients, run two seconds of virtual time, and inspect what
// committed. Everything runs deterministically in-process — re-running
// prints identical numbers.
package main

import (
	"fmt"
	"time"

	"prestigebft"
)

func main() {
	cluster := prestigebft.NewSimCluster(prestigebft.ClusterOptions{
		N:         4,  // 3f+1 servers, tolerating f=1 Byzantine
		Clients:   8,  // closed-loop clients (one outstanding request each)
		BatchSize: 16, // the paper's β
		Seed:      1,  // all randomness derives from this
	})
	cluster.Start()
	cluster.Run(2 * time.Second) // virtual time: completes in milliseconds

	m := cluster.Metrics
	lat := prestigebft.MergeLatencies(cluster.ClientStats())
	fmt.Printf("committed %d transactions in %d blocks\n", m.TotalTxs, len(m.Commits))
	fmt.Printf("throughput: %.0f TPS, mean latency: %v\n",
		m.TPS(0, prestigebft.VirtualTime(2*time.Second)), lat.Mean().Round(time.Millisecond))

	// Every correct replica holds the same chain.
	for _, node := range cluster.Nodes {
		fmt.Printf("server %d: view %d, height %d, leader %d\n",
			node.ID(), node.View(), node.Store().TxHeight(), node.CurrentLeader())
	}

	// Crash the leader; the active view-change protocol elects an
	// up-to-date replacement (never a crashed one) and service resumes.
	fmt.Println("\ncrashing the leader...")
	cluster.Crash(cluster.Nodes[0].CurrentLeader())
	cluster.Run(8 * time.Second)
	fmt.Printf("after recovery: %d transactions, new leader %d (elections: %d)\n",
		m.TotalTxs, cluster.Nodes[1].CurrentLeader(), m.Elections)
}
