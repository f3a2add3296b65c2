package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"prestigebft/internal/types"
)

// workload is one closed-loop traffic shape. Every workload runs N=4 (f=1),
// β=100, W=8, CheckpointInterval 64, binary codec and verify pool at their
// defaults; each client waits for its commit before sending the next request
// (the paper's method — the repo has no open-loop driver yet).
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why     string
	clients int
	// payload is the paper's m, in bytes.
	payload int
	// hop is the delay injected on every message, so latency is never
	// mistaken for processor time.
	hop time.Duration
	// crashes is how many times the current leader is killed during the
	// measured window, at even intervals; 0 is fault-free.
	crashes int
	// byHand marks a workload that BENCHMARK.json leaves out, so the driver
	// does not run or gate it; `go run ./benchmark` still does.
	byHand bool
}

var workloads = []workload{
	{
		name:    "sat-small",
		why:     "48 clients, 32 B payloads, 0 ms hops: CPU-bound, so per-message costs (verify, codec, Transport.Send, event queue) set tps",
		clients: 48, payload: 32,
	},
	{
		name:    "sat-big",
		why:     "48 clients, 4 KiB payloads, 0 ms hops: same layers, but byte copying, hashing, write size and ledger retention dominate",
		clients: 48, payload: 4096,
		// The driver's time limit buys either four workloads with 28 s
		// windows or three with 40 s, and the window length is what lets a
		// run on a shared host see undisturbed seconds. This is the one whose
		// numbers moved most between runs of one commit there (24-38 %).
		byHand: true,
	},
	{
		name:    "lan-2ms",
		why:     "16 clients, 32 B, fixed 2 ms injected per hop: latency-bound, hop count and batching set the result; a CPU saving should not move it",
		clients: 16, payload: 32, hop: 2 * time.Millisecond,
	},
	{
		name:    "leader-crash",
		why:     "16 clients, 32 B, 0 ms hops, the current leader killed once per quarter of the window and recovered: the paper's view-change path",
		clients: 16, payload: 32, crashes: 4,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Cluster shape shared by every workload.
const (
	clusterN           = 4
	batchSize          = 100
	pipelineDepth      = 8
	checkpointInterval = 64
	clientTimeout      = 2 * time.Second
)

// tagLen is the length of the provenance tag that opens every payload.
const tagLen = 8

// payloadTag derives the tag that opens the payload of request seq of
// client id under the run's seed (one splitmix64 round): the replicas'
// checking state machine recomputes it, so a committed transaction that is
// not exactly a request the benchmark generated is caught at apply time
// without regenerating the random body.
func payloadTag(seed int64, id types.ClientID, seq uint32) uint64 {
	z := uint64(seed) + uint64(id)<<32 + uint64(seq) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// clientLog is one client's request history as seen from outside the
// program: the instants its requests were handed over.
type clientLog struct {
	mu  sync.Mutex
	rng *rand.Rand
	// submits[i] is when request i+1 was generated. Clients are closed-loop
	// with zero think time, so submits[i+1] is also when request i+1's
	// commit was acknowledged (plus the ~25 µs the client spends signing).
	submits []time.Duration
}

// recorder generates every client's payload bytes from the run's seed and
// timestamps each hand-over. harness.Options.ClientPayload is the only hook
// it needs: client.next() calls it at every submit, which makes submit and
// completion times observable without touching the program.
type recorder struct {
	seed int64
	size int
	// base is the run's epoch, set just before the environment starts.
	base    time.Time
	clients []clientLog
}

func newRecorder(seed int64, clients, size int) *recorder {
	r := &recorder{seed: seed, size: size, clients: make([]clientLog, clients)}
	for i := range r.clients {
		r.clients[i].rng = rand.New(rand.NewSource(seed<<20 + int64(i)))
	}
	return r
}

// payload implements harness.Options.ClientPayload.
func (r *recorder) payload(id types.ClientID, seq int) []byte {
	now := time.Since(r.base)
	buf := make([]byte, r.size)
	cl := &r.clients[id-1]
	cl.mu.Lock()
	cl.rng.Read(buf[tagLen:])
	cl.submits = append(cl.submits, now)
	if len(cl.submits) != seq {
		// The client numbers its requests 1, 2, 3…; anything else means the
		// hook contract this recorder rests on changed.
		panic(fmt.Sprintf("benchmark: client %d generated request %d after %d hand-overs", id, seq, len(cl.submits)-1))
	}
	cl.mu.Unlock()
	binary.BigEndian.PutUint64(buf, payloadTag(r.seed, id, uint32(seq)))
	return buf
}

// requests flattens the per-client logs into requests. The last request of
// every client has no successor and is therefore outstanding.
func (r *recorder) requests() []request {
	var out []request
	for i := range r.clients {
		cl := &r.clients[i]
		cl.mu.Lock()
		for j, at := range cl.submits {
			rq := request{submit: at}
			if j+1 < len(cl.submits) {
				rq.done = cl.submits[j+1]
			}
			out = append(out, rq)
		}
		cl.mu.Unlock()
	}
	return out
}

// acknowledged returns how many requests each client saw committed.
func (r *recorder) acknowledged() []uint32 {
	out := make([]uint32, len(r.clients))
	for i := range r.clients {
		cl := &r.clients[i]
		cl.mu.Lock()
		if n := len(cl.submits); n > 0 {
			out[i] = uint32(n - 1)
		}
		cl.mu.Unlock()
	}
	return out
}

// allSubmittedSince reports whether every client has handed over a request
// at or after t — i.e. every request outstanding at t has completed.
func (r *recorder) allSubmittedSince(t time.Duration) bool {
	for i := range r.clients {
		cl := &r.clients[i]
		cl.mu.Lock()
		n := len(cl.submits)
		ok := n > 0 && cl.submits[n-1] >= t
		cl.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}
