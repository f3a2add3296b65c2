// Command prestige-client drives a live PrestigeBFT cluster with a
// closed-loop workload and reports throughput and latency — the live-mode
// counterpart of the simulator's workload clients.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"prestigebft/internal/crypto"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

func main() {
	n := flag.Int("n", 4, "cluster size")
	peers := flag.String("peers", ":7001,:7002,:7003,:7004", "comma-separated server addresses")
	seed := flag.Uint64("seed", 42, "deployment key seed (must match servers)")
	id := flag.Int("id", 1, "client ID (1..clients registered at servers)")
	payload := flag.Int("m", 32, "payload size in bytes")
	duration := flag.Duration("duration", 10*time.Second, "how long to run")
	timeout := flag.Duration("timeout", 2*time.Second, "complaint timeout")
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
	quorum := types.ConfirmSize(*n)

	var mu sync.Mutex
	notifs := make(map[types.Digest]map[types.ServerID]bool)
	committed := make(chan types.Digest, 64)
	handler := func(env *transport.Envelope) {
		notif, ok := env.Msg.(*types.Notif)
		if !ok || env.FromServer == 0 {
			return
		}
		if !reg.VerifyServer(env.FromServer, notif.SigningBytes(), notif.Sig) {
			return
		}
		mu.Lock()
		set := notifs[notif.TxD]
		if set == nil {
			set = make(map[types.ServerID]bool)
			notifs[notif.TxD] = set
		}
		set[env.FromServer] = true
		done := len(set) == quorum
		mu.Unlock()
		if done {
			committed <- notif.TxD
		}
	}
	listen := fmt.Sprintf("127.0.0.1:%d", 9000+cid)
	if err := tr.Listen(listen, handler); err != nil {
		log.Fatalf("listen %s: %v", listen, err)
	}
	log.Printf("client %d listening on %s, driving %d servers for %v", cid, listen, *n, *duration)

	// sendAll queues msg for every server. Losses are expected under faults
	// (up to f servers may be down); only total unreachability is worth
	// surfacing.
	sendAll := func(msg types.Message) {
		tr.Broadcast(addrs, msg)
		if dead := tr.Unreachable(); len(dead) == len(addrs) {
			log.Printf("all %d servers unreachable; cluster down?", len(dead))
		}
	}

	var latencies []time.Duration
	complaints := 0
	deadline := time.Now().Add(*duration)
	seq := 0
	for time.Now().Before(deadline) {
		seq++
		tx := types.Transaction{
			Timestamp: int64(cid)<<32 | int64(seq),
			Client:    cid,
			Data:      make([]byte, *payload),
		}
		prop := &types.Prop{Tx: tx, D: tx.Digest()}
		prop.Sig = keys.Sign(prop.SigningBytes())
		start := time.Now()
		sendAll(prop)
	wait:
		for {
			select {
			case d := <-committed:
				if d == prop.D {
					latencies = append(latencies, time.Since(start))
					break wait
				}
			case <-time.After(*timeout):
				// Complain (§4.2.1) and keep waiting.
				complaints++
				compt := &types.Compt{Prop: *prop}
				compt.Sig = keys.Sign(compt.SigningBytes())
				sendAll(compt)
				if time.Now().After(deadline) {
					break wait
				}
			}
		}
	}

	if len(latencies) == 0 {
		log.Fatal("no transactions committed")
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	fmt.Printf("committed: %d txs in %v\n", len(latencies), *duration)
	fmt.Printf("throughput: %.1f tx/s (single closed-loop client)\n", float64(len(latencies))/duration.Seconds())
	fmt.Printf("latency: mean %v, p50 %v, p99 %v\n",
		(sum / time.Duration(len(latencies))).Round(time.Microsecond),
		latencies[len(latencies)/2].Round(time.Microsecond),
		latencies[len(latencies)*99/100].Round(time.Microsecond))
	fmt.Printf("complaints: %d\n", complaints)
}
