// Command prestige-server runs one live PrestigeBFT replica over TCP.
//
// A 4-server local cluster:
//
//	prestige-server -id 1 -n 4 -listen :7001 -peers :7001,:7002,:7003,:7004 &
//	prestige-server -id 2 -n 4 -listen :7002 -peers :7001,:7002,:7003,:7004 &
//	prestige-server -id 3 -n 4 -listen :7003 -peers :7001,:7002,:7003,:7004 &
//	prestige-server -id 4 -n 4 -listen :7004 -peers :7001,:7002,:7003,:7004 &
//	prestige-client -n 4 -peers :7001,:7002,:7003,:7004 -duration 10s
//
// Keys are derived deterministically from -seed so all processes agree on
// the deployment registry without a PKI (demo-grade; swap in real key
// distribution for production).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"prestigebft/internal/consensus"
	"prestigebft/internal/core"
	"prestigebft/internal/crypto"
	"prestigebft/internal/metrics"
	"prestigebft/internal/runtime"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

func main() {
	id := flag.Int("id", 1, "server ID (1..n)")
	n := flag.Int("n", 4, "cluster size (3f+1)")
	listen := flag.String("listen", ":7001", "listen address")
	peers := flag.String("peers", ":7001,:7002,:7003,:7004", "comma-separated peer addresses, index = server ID")
	seed := flag.Uint64("seed", 42, "deployment key seed (must match across processes)")
	clients := flag.Int("clients", 64, "number of client identities in the registry")
	batch := flag.Int("batch", 100, "batch size β")
	depth := flag.Int("pipeline-depth", 8, "replication window W: in-flight consensus instances (1 = stop-and-wait)")
	ckpt := flag.Int("checkpoint-interval", 0, "certified-checkpoint interval in committed seqs: the log compacts below each certificate and late joiners catch up via snapshot (0 = retain the full log)")
	bits := flag.Int("puzzle-bits", 4, "proof-of-work bits per reputation penalty unit")
	policy := flag.Duration("rotate", 0, "timing-policy view rotation period (0 = disabled)")
	rngSeed := flag.Int64("rng-seed", 0, "runtime RNG seed for reproducible timer jitter and puzzle nonces (0 = wall clock)")
	admin := flag.String("admin", "", "admin listen address serving /metrics and /healthz (empty = disabled)")
	verbose := flag.Bool("v", false, "log traces")
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	if len(addrs) != *n {
		log.Fatalf("expected %d peer addresses, got %d", *n, len(addrs))
	}
	peerMap := make(map[types.ServerID]string, *n)
	for i, a := range addrs {
		peerMap[types.ServerID(i+1)] = strings.TrimSpace(a)
	}

	reg, serverKeys, _ := crypto.GenerateDeployment(*seed, *n, *clients)
	reg.EnableVerifiedCache(0)
	sid := types.ServerID(*id)
	nodeCfg := core.Config{
		ID:                 sid,
		N:                  *n,
		Keys:               serverKeys[sid],
		Registry:           reg,
		BatchSize:          *batch,
		PipelineDepth:      *depth,
		CheckpointInterval: *ckpt,
		PuzzleBitsPerRP:    *bits,
		ViewPolicy:         *policy,
	}
	if *rngSeed != 0 {
		// Reproducible timer jitter: derive a per-server stream from the
		// shared seed so servers do not draw identical timeouts.
		nodeCfg.RNG = rand.New(rand.NewSource(*rngSeed<<16 + int64(sid)))
	}
	node := core.New(nodeCfg)

	tr := transport.NewServerTransport(sid)
	tr.SetLogf(log.Printf)
	var mreg *metrics.Registry
	if *admin != "" {
		mreg = metrics.NewRegistry()
		metrics.RegisterProcessMetrics(mreg)
	}
	rt := runtime.New(runtime.Config{
		Replica:         node,
		Peers:           peerMap,
		Transport:       tr,
		Registry:        reg,
		PuzzleBitsPerRP: *bits,
		Seed:            *rngSeed,
		Metrics:         mreg,
		OnCommit: func(b *types.TxBlock) {
			if *verbose {
				log.Printf("committed block %d (%d txs) in view %d", b.Header.N, len(b.Txs), b.Header.V)
			}
		},
		OnTrace: func(t consensus.Trace) {
			if *verbose {
				log.Printf("trace %s view=%d value=%d", t.Event, t.View, t.Value)
			}
		},
	})

	handler := newHandler(rt.RegisterClient, rt.Deliver)
	if err := tr.Listen(*listen, handler); err != nil {
		log.Fatalf("listen: %v", err)
	}

	var draining atomic.Bool
	if *admin != "" {
		adm, err := metrics.ServeAdmin(*admin, mreg, func() metrics.Health {
			return rt.Health(draining.Load())
		})
		if err != nil {
			log.Fatalf("admin listen: %v", err)
		}
		defer adm.Close()
		log.Printf("admin on %s (/metrics, /healthz)", adm.Addr())
	}

	// Graceful shutdown: SIGINT/SIGTERM flips /healthz to draining, stops
	// the event loop, waits until no goroutine touches the replica anymore,
	// then closes the transport so peers see a clean death (their cached
	// connections fail and evict) instead of a half-open socket.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("received %v, draining", sig)
		draining.Store(true)
		rt.Stop()
	}()

	log.Printf("prestige-server %d/%d listening on %s (leader of view 1: server 1)", *id, *n, tr.Addr())
	rt.Run()
	rt.Wait()
	tr.Close()
	log.Printf("prestige-server %d stopped", *id)
}

// newHandler is the transport handler: it learns a client's return address
// from its first message (demo convention: clients listen on 9000+ID
// locally) and registers it once per client ID — not a runtime lock and an
// address allocation per Prop — then hands the envelope to deliver. An
// address learned some other way still overrides it: register overwrites.
func newHandler(register func(types.ClientID, string), deliver func(*transport.Envelope)) transport.Handler {
	var known sync.Map // types.ClientID -> struct{}
	return func(env *transport.Envelope) {
		if id := env.FromClient; id != 0 {
			if _, seen := known.LoadOrStore(id, struct{}{}); !seen {
				register(id, fmt.Sprintf("127.0.0.1:%d", 9000+id))
			}
		}
		deliver(env)
	}
}
