// Command prestige-client drives a live PrestigeBFT cluster with a
// closed-loop workload and reports throughput and latency — the live-mode
// counterpart of the simulator's workload clients: the same client.Client,
// hosted on a TCP transport by runtime.ClientHost.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"prestigebft/internal/client"
	"prestigebft/internal/crypto"
	"prestigebft/internal/runtime"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

func main() {
	n := flag.Int("n", 4, "cluster size")
	peers := flag.String("peers", ":7001,:7002,:7003,:7004", "comma-separated server addresses, in server ID order")
	seed := flag.Uint64("seed", 42, "deployment key seed (must match servers)")
	id := flag.Int("id", 1, "client ID (1..clients registered at servers)")
	payload := flag.Int("m", 32, "payload size in bytes")
	duration := flag.Duration("duration", 10*time.Second, "how long to run")
	timeout := flag.Duration("timeout", 2*time.Second, "the longest complaint wait")
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	if len(addrs) != *n {
		log.Fatalf("expected %d peer addresses, got %d", *n, len(addrs))
	}
	reg, _, clientKeys := crypto.GenerateDeployment(*seed, *n, 64)
	cid := types.ClientID(*id)
	keys := clientKeys[cid]
	if keys == nil {
		log.Fatalf("client id %d not in registry", *id)
	}

	tr := transport.NewClientTransport(cid)
	host := runtime.NewClientHost(tr, addrs, client.Config{
		ID:          cid,
		Keys:        keys,
		Registry:    reg,
		N:           *n,
		PayloadSize: *payload,
		Timeout:     *timeout,
	})
	// Demo convention: servers answer client c on 127.0.0.1:9000+c.
	listen := fmt.Sprintf("127.0.0.1:%d", 9000+cid)
	if err := tr.Listen(listen, host.Deliver); err != nil {
		log.Fatalf("listen %s: %v", listen, err)
	}
	log.Printf("client %d listening on %s, driving %d servers for %v", cid, listen, *n, *duration)

	host.Start()
	time.Sleep(*duration)
	host.Stop()
	stats := host.Stats()
	dead := tr.Unreachable()
	tr.Close()

	if stats.Committed == 0 {
		// Losses are expected under faults (up to f servers may be down);
		// only total failure is worth explaining.
		log.Fatalf("no transactions committed (%d rejected, %d complaints, %d of %d servers unreachable)",
			stats.Rejected, stats.Complaints, len(dead), *n)
	}
	latencies := stats.Latencies
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	fmt.Printf("committed: %d txs in %v\n", stats.Committed, *duration)
	fmt.Printf("throughput: %.1f tx/s (single closed-loop client)\n", float64(stats.Committed)/duration.Seconds())
	fmt.Printf("latency: mean %v, p50 %v, p99 %v\n",
		(sum / time.Duration(len(latencies))).Round(time.Microsecond),
		latencies[len(latencies)/2].Round(time.Microsecond),
		latencies[len(latencies)*99/100].Round(time.Microsecond))
	fmt.Printf("complaints: %d\n", stats.Complaints)
}
