// byzantine-demo: watch the reputation mechanism price a repeated
// view-change attacker (the paper's F4+F2 scenario, Figures 11-13).
//
// Three of sixteen servers campaign for leadership at every opportunity and
// go quiet once elected. Early on they win elections cheaply (rp = 1 means
// negligible proof-of-work); every win without replication raises their
// penalty, making the next campaign exponentially more expensive. The paper
// expects correct servers to out-compete them in the end; the demo prints
// each window's throughput and penalties, then each leader's share of all
// installed views, so the run shows how far that holds.
package main

import (
	"fmt"
	"time"

	"prestigebft"
)

func main() {
	faulty := map[prestigebft.ServerID]prestigebft.FaultSpec{
		14: {Mode: prestigebft.FaultQuiet, RepeatedVC: true, HashRateScale: 3},
		15: {Mode: prestigebft.FaultQuiet, RepeatedVC: true, HashRateScale: 3},
		16: {Mode: prestigebft.FaultQuiet, RepeatedVC: true, HashRateScale: 3},
	}
	cluster := prestigebft.NewSimCluster(prestigebft.ClusterOptions{
		N: 16, Clients: 32, BatchSize: 32, Seed: 99,
		ViewPolicy:    10 * time.Second, // rotate leadership every 10 s (the paper's r10)
		ClientTimeout: 2 * time.Second,
		Faults:        faulty,
	})
	cluster.Start()

	fmt.Println("t(s)   TPS     leader  rp[S14] rp[S15] rp[S16]  elections")
	const windows, window = 15, 10 * time.Second
	for i := 1; i <= windows; i++ {
		from := cluster.Now()
		cluster.Run(window)
		tps := cluster.Metrics.TPS(from, cluster.Now())
		observer := cluster.Nodes[0] // a correct server's view of reputations
		fmt.Printf("%4d  %7.0f   S%-4d %5d %7d %7d %9d\n",
			i*10, tps,
			observer.CurrentLeader(),
			observer.ReputationPenalty(14),
			observer.ReputationPenalty(15),
			observer.ReputationPenalty(16),
			cluster.Metrics.Elections)
	}

	share := cluster.Metrics.LeaderShare()
	fmt.Printf("\nleadership share: each leader's share of all %d views installed over %.0f s\n",
		len(cluster.Metrics.Leaders), (windows * window).Seconds())
	for id := prestigebft.ServerID(1); id <= 16; id++ {
		if share[id] > 0 {
			tag := ""
			if _, bad := faulty[id]; bad {
				tag = "  <- attacker"
			}
			fmt.Printf("  S%-3d %5.1f%%%s\n", id, share[id]*100, tag)
		}
	}
}
