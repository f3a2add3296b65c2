package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/core"
	"prestigebft/internal/crypto"
	"prestigebft/internal/harness"
	"prestigebft/internal/ledger"
	"prestigebft/internal/reputation"
	"prestigebft/internal/sim"
	"prestigebft/internal/transport"
	"prestigebft/internal/transport/codec"
	"prestigebft/internal/types"
)

// The layer replay runs the sat-small shape on the deterministic simulator
// with real signatures, the replica being core.New behind a decorator that
// records a span around every call into it. Which calls happen, in which
// order and with which messages, is fixed by replaySeed — counts repeat
// exactly from run to run on one commit; durations are wall-clock. The
// messages, QCs and blocks the run produces are then fed to each lower
// layer's public functions in isolation.
const (
	replaySeed    = 4242
	replayVirtual = 500 * time.Millisecond
	// captureLimit bounds how many messages of one kind are kept for the
	// isolated layer timings; the first few hundred are representative.
	captureLimit = 256
	// tracedProtocol is the name the decorated replica is registered under.
	tracedProtocol harness.Protocol = "prestige-traced"
)

// handledKinds are the message kinds whose handler time is reported, and
// codecKinds the hot kinds whose encoding is.
var (
	handledKinds = []string{"Prop", "Ord", "OrdReply", "Cmt", "CmtReply", "TxBlockMsg", "CkptVote"}
	codecKinds   = []string{"Ord", "Cmt", "TxBlockMsg", "OrdReply", "Notif"}
)

// kindOf names a message by its Go type ("TxBlockMsg", not Type()'s
// "TxBlock"), matching the codec's and DESIGN.md's vocabulary.
func kindOf(msg types.Message) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", msg), "*types.")
}

// callSpan is one call into a replica: which entry point, when, and the
// call whose effects caused it (0 for client requests and Init).
type callSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Replica int    `json:"replica"`
	Name    string `json:"name"`
	// StartNs and EndNs are wall-clock nanoseconds since the replay began.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

type timerKey struct {
	replica types.ServerID
	kind    consensus.TimerKind
	key     uint64
}

// spanLog holds the replay's spans in memory until the run ends. The
// simulator is single-threaded, so the four decorated replicas share it
// without locks.
type spanLog struct {
	begin time.Time
	spans []callSpan
	// emittedBy maps a message to the span whose effects carried it (the
	// simulator delivers the same pointer it was handed); armedBy does the
	// same for timers.
	emittedBy map[types.Message]int
	armedBy   map[timerKey]int

	captured map[string][]types.Message
	blocks   []*types.TxBlock // replica 1's commits, in order
}

func newSpanLog() *spanLog {
	return &spanLog{
		begin:     time.Now(),
		emittedBy: make(map[types.Message]int),
		armedBy:   make(map[timerKey]int),
		captured:  make(map[string][]types.Message),
	}
}

// record appends the span of one finished call and indexes what the call
// emitted, so later calls can name it as their parent.
func (l *spanLog) record(replica types.ServerID, name string, parent int, start, end time.Time, effs []consensus.Effect) {
	id := len(l.spans) + 1
	l.spans = append(l.spans, callSpan{
		ID: id, Parent: parent, Replica: int(replica), Name: name,
		StartNs: start.Sub(l.begin).Nanoseconds(), EndNs: end.Sub(l.begin).Nanoseconds(),
	})
	for _, e := range effs {
		switch ef := e.(type) {
		case consensus.Send:
			l.emitted(id, ef.Msg)
		case consensus.Broadcast:
			l.emitted(id, ef.Msg)
		case consensus.SendClient:
			l.emitted(id, ef.Msg)
		case consensus.SetTimer:
			l.armedBy[timerKey{replica, ef.Kind, ef.Key}] = id
		case consensus.Commit:
			if replica == 1 {
				l.blocks = append(l.blocks, ef.Block)
			}
		}
	}
}

func (l *spanLog) emitted(by int, msg types.Message) {
	l.emittedBy[msg] = by
	if k := kindOf(msg); len(l.captured[k]) < captureLimit {
		l.captured[k] = append(l.captured[k], msg)
	}
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err = enc.Encode(&l.spans[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// tracedReplica decorates a replica with a span around each of the four
// entry points. (Ord leaves the leader from OnTimer — the batch timer — not
// from OnMessage, so wrapping OnMessage alone would orphan it.)
type tracedReplica struct {
	inner consensus.Replica
	log   *spanLog
}

func (r *tracedReplica) ID() types.ServerID { return r.inner.ID() }

func (r *tracedReplica) Init(now time.Duration) []consensus.Effect {
	start := time.Now()
	effs := r.inner.Init(now)
	r.log.record(r.ID(), "core.Init", 0, start, time.Now(), effs)
	return effs
}

func (r *tracedReplica) OnMessage(now time.Duration, from consensus.Origin, msg types.Message) []consensus.Effect {
	start := time.Now()
	effs := r.inner.OnMessage(now, from, msg)
	end := time.Now()
	r.log.record(r.ID(), "core.OnMessage."+kindOf(msg), r.log.emittedBy[msg], start, end, effs)
	return effs
}

func (r *tracedReplica) OnTimer(now time.Duration, kind consensus.TimerKind, key uint64) []consensus.Effect {
	start := time.Now()
	effs := r.inner.OnTimer(now, kind, key)
	end := time.Now()
	r.log.record(r.ID(), "core.OnTimer", r.log.armedBy[timerKey{r.ID(), kind, key}], start, end, effs)
	return effs
}

func (r *tracedReplica) OnPuzzleSolved(now time.Duration, token uint64, nonce []byte, hr types.Digest) []consensus.Effect {
	start := time.Now()
	effs := r.inner.OnPuzzleSolved(now, token, nonce, hr)
	r.log.record(r.ID(), "core.OnPuzzleSolved", 0, start, time.Now(), effs)
	return effs
}

// replayOptions is the sat-small shape on the simulator.
func replayOptions(protocol harness.Protocol, verify bool) harness.Options {
	w := workloads[0]
	return harness.Options{
		Protocol:           protocol,
		N:                  clusterN,
		Clients:            w.clients,
		Seed:               replaySeed,
		BatchSize:          batchSize,
		PayloadSize:        w.payload,
		PipelineDepth:      pipelineDepth,
		CheckpointInterval: checkpointInterval,
		ClientTimeout:      clientTimeout,
		Net:                sim.NetworkConfig{Latency: sim.FixedLatency(w.hop)},
		VerifySignatures:   verify,
	}
}

// runReplay produces the replay's per-layer metrics and writes the span file.
func runReplay(spanPath string) (map[string]float64, error) {
	// Start from a collected heap: the live cluster that ran just before has
	// been closed, and its garbage is not the replay's to pay for.
	runtime.GC()
	log := newSpanLog()
	harness.RegisterProtocol(tracedProtocol, func(env harness.FactoryEnv) consensus.Replica {
		// The same node harness.NewCluster builds for PrestigeBFT.
		o := env.Opts
		return &tracedReplica{log: log, inner: core.New(core.Config{
			ID: env.ID, N: env.N, Keys: env.Keys, Registry: env.Registry,
			BatchSize: o.BatchSize, PipelineDepth: o.PipelineDepth, CheckpointInterval: o.CheckpointInterval,
			TimeoutMin: o.TimeoutMin, TimeoutMax: o.TimeoutMax,
			PuzzleBitsPerRP: -1, // simulation: difficulty enforced by the time model
			RNG:             env.RNG,
		})}
	})
	cl := harness.NewCluster(replayOptions(tracedProtocol, true))
	cl.Start()
	cl.Run(replayVirtual)

	var votes []*types.OrdReply
	for _, m := range log.captured["OrdReply"] {
		votes = append(votes, m.(*types.OrdReply))
	}
	var qcs []*types.QC
	for _, m := range log.captured["TxBlockMsg"] {
		b := &m.(*types.TxBlockMsg).Block
		qcs = append(qcs, &b.OrderingQC, &b.CommitQC)
	}
	if len(votes) == 0 || len(qcs) == 0 || len(log.blocks) == 0 {
		return nil, fmt.Errorf("replay: captured %d votes, %d QCs, %d blocks — the replay committed nothing", len(votes), len(qcs), len(log.blocks))
	}

	out := map[string]float64{}
	handlerTimes(out, log.spans)
	if err := timeCodec(out, log.captured); err != nil {
		return nil, err
	}
	if err := timeCryptoAndLedger(out, votes, qcs, log.blocks); err != nil {
		return nil, err
	}
	if err := timeTransport(out, votes[0]); err != nil {
		return nil, err
	}
	timeViewChangeCode(out)
	simPrediction(out)

	fmt.Printf("benchmark: layer replay: %d spans over %v of virtual time, %d blocks committed, spans in %s\n",
		len(log.spans), replayVirtual, len(log.blocks), spanPath)
	return out, log.write(spanPath)
}

// handlerTimes reports, per message kind, how many times the replicas'
// handler ran and its mean duration. Handlers do not nest, so a span's
// duration is its self time.
func handlerTimes(out map[string]float64, spans []callSpan) {
	n, total := map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		n[s.Name]++
		total[s.Name] += float64(s.EndNs - s.StartNs)
	}
	for _, k := range handledKinds {
		name := "core.OnMessage." + k
		out["core.handle_n."+k] = n[name]
		out["core.handle_ns."+k] = ratio(total[name], n[name])
	}
	out["core.handle_n.timer"] = n["core.OnTimer"]
	out["core.handle_ns.timer"] = ratio(total["core.OnTimer"], n["core.OnTimer"])
}

// timeCodec runs every captured message of the hot kinds through
// codec.Append and codec.Decode.
func timeCodec(out map[string]float64, captured map[string][]types.Message) error {
	for _, k := range codecKinds {
		msgs := captured[k]
		var frames [][]byte
		bytes := 0
		for _, m := range msgs {
			frame, ok := codec.Append(nil, m)
			if !ok {
				return fmt.Errorf("replay: codec cannot encode %s", k)
			}
			frames = append(frames, frame)
			bytes += len(frame)
		}
		out["codec.bytes."+k] = ratio(float64(bytes), float64(len(msgs)))
		buf := make([]byte, 0, 1<<16)
		out["codec.append_ns."+k] = perOp(len(msgs), func() {
			for _, m := range msgs {
				buf, _ = codec.Append(buf[:0], m)
			}
		})
		var decodeErr error
		out["codec.decode_ns."+k] = perOp(len(frames), func() {
			for _, f := range frames {
				if _, err := codec.Decode(f); err != nil {
					decodeErr = err
				}
			}
		})
		if decodeErr != nil {
			return fmt.Errorf("replay: decode %s: %w", k, decodeErr)
		}
	}
	return nil
}

// timeCryptoAndLedger times one signature, one verification, one QC check
// cold and from the verified-fact cache, and one block append.
func timeCryptoAndLedger(out map[string]float64, votes []*types.OrdReply, qcs []*types.QC, blocks []*types.TxBlock) error {
	// Same keys as the replay's cluster; cold has no cache (the simulator
	// never enables it), warm is the live configuration.
	cold, keys, _ := crypto.GenerateDeployment(uint64(replaySeed)+0x5eed, clusterN, 0)
	cold.VerifySignatures = true
	warm, _, _ := crypto.GenerateDeployment(uint64(replaySeed)+0x5eed, clusterN, 0)
	warm.VerifySignatures = true
	warm.EnableVerifiedCache(0)

	out["crypto.sign_ns"] = perOp(len(votes), func() {
		for _, v := range votes {
			keys[v.From].Sign(v.SigningBytes())
		}
	})
	bad := 0
	out["crypto.verify_ns"] = perOp(len(votes), func() {
		for _, v := range votes {
			if !cold.VerifyServer(v.From, v.SigningBytes(), v.Sig) {
				bad++
			}
		}
	})
	verifyQCs := func(reg *crypto.Registry) func() {
		return func() {
			for _, qc := range qcs {
				if reg.VerifyQC(qc, types.QuorumSize(clusterN)) != nil {
					bad++
				}
			}
		}
	}
	out["crypto.verifyqc_cold_ns"] = perOp(len(qcs), verifyQCs(cold))
	verifyQCs(warm)() // fill the cache
	out["crypto.verifyqc_hit_ns"] = perOp(len(qcs), verifyQCs(warm))
	if bad > 0 {
		return fmt.Errorf("replay: %d captured signatures or QCs failed verification", bad)
	}

	// ledger: the committed blocks into a fresh store, their QCs already
	// verified and cached as they are in a live run by the time a block is
	// appended — so this is the ledger's own cost, not ed25519's.
	for _, b := range blocks {
		for _, qc := range []*types.QC{&b.OrderingQC, &b.CommitQC} {
			if err := warm.VerifyQC(qc, types.QuorumSize(clusterN)); err != nil {
				return fmt.Errorf("replay: committed block %d: %w", b.Header.N, err)
			}
		}
	}
	var appendErr error
	out["ledger.append_ns"] = perOp(len(blocks), func() {
		st := ledger.NewStore(clusterN, 1, nil)
		for _, b := range blocks {
			if err := st.AppendTxBlock(warm, b); err != nil {
				appendErr = err
			}
		}
	})
	if appendErr != nil {
		return fmt.Errorf("replay: append committed blocks: %w", appendErr)
	}
	return nil
}

// timeViewChangeCode times the two computations a campaign performs — the
// code share of a view change, the rest being timeouts.
func timeViewChangeCode(out map[string]float64) {
	eng := reputation.New()
	snap := reputation.Snapshot{V: 40, RP: 3, CI: 100, TI: 5000, Penalties: make([]int64, 40)}
	for i := range snap.Penalties {
		snap.Penalties[i] = int64(1 + i%4)
	}
	const calcs = 1000
	out["reputation.calcrp_ns"] = perOp(calcs, func() {
		for i := 0; i < calcs; i++ {
			eng.CalcRP(41, snap)
		}
	})
	rng := rand.New(rand.NewSource(replaySeed))
	var hashes uint64
	begin := time.Now()
	for i := 0; i < 8; i++ {
		_, _, iters := crypto.SolvePuzzle(crypto.PuzzleSeed(types.Digest{byte(i)}, 2), 14, rng)
		hashes += iters
	}
	out["crypto.puzzle_hashes_per_ms"] = float64(hashes) / (float64(time.Since(begin)) / float64(time.Millisecond))
}

// simPrediction runs the same shape on the cost model (signatures off):
// printed beside live tps on sat-small, it is the sim↔live gap as one ratio.
func simPrediction(out map[string]float64) {
	begin := time.Now()
	model := harness.NewCluster(replayOptions(harness.PrestigeBFT, false))
	model.Start()
	model.Run(replayVirtual)
	wall := time.Since(begin)
	// The first fifth is the model's own warm-up.
	from := sim.Duration(replayVirtual / 5)
	out["sim.predicted_tps"] = model.Metrics.TPS(from, sim.Duration(replayVirtual))
	out["sim.wall_s_per_virtual_s"] = wall.Seconds() / replayVirtual.Seconds()
}

// perOp times fn — which performs ops operations — a few times and returns
// the median nanoseconds per operation.
func perOp(ops int, fn func()) float64 {
	if ops == 0 {
		return 0
	}
	const rounds = 5
	per := make([]float64, rounds)
	for i := range per {
		begin := time.Now()
		fn()
		per[i] = float64(time.Since(begin)) / float64(ops)
	}
	return median(per)
}

// timeTransport measures Transport.Send over loopback between two
// transports speaking the binary codec: the time the caller is blocked — the
// stall an off-loop sender would take off the consensus event loop — for a
// small frame (a vote) and a large one (a full 100 × 4 KiB Ord), and the
// send-to-handler latency of the small one.
func timeTransport(out map[string]float64, small types.Message) error {
	large := &types.Ord{From: 1, V: 1, N: 1, Sig: make([]byte, 64), Txs: make([]types.Transaction, batchSize)}
	for i := range large.Txs {
		large.Txs[i] = types.Transaction{Timestamp: int64(i), Client: 1, Data: make([]byte, 4096)}
	}

	arrived := make(chan struct{}, 1) // one message is in flight at a time
	a, b := transport.NewServerTransport(1), transport.NewServerTransport(2)
	defer a.Close()
	defer b.Close()
	a.SetWireCodec(transport.CodecBinary)
	b.SetWireCodec(transport.CodecBinary)
	if err := b.Listen("127.0.0.1:0", func(*transport.Envelope) { arrived <- struct{}{} }); err != nil {
		return fmt.Errorf("replay: transport listen: %w", err)
	}
	// pingPong sends msg n times, each after the previous arrived, and
	// returns the median blocked-in-Send time and send→handler time.
	pingPong := func(msg types.Message, n int) (sendNs, deliverNs float64, err error) {
		sends, delivers := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			begin := time.Now()
			if err := a.Send(b.Addr(), msg); err != nil {
				return 0, 0, fmt.Errorf("replay: transport send: %w", err)
			}
			sends[i] = float64(time.Since(begin))
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
				return 0, 0, fmt.Errorf("replay: transport delivered nothing in 5s")
			}
			delivers[i] = float64(time.Since(begin))
		}
		return median(sends), median(delivers), nil
	}
	if _, _, err := pingPong(small, 10); err != nil { // dial and handshake
		return err
	}
	send, deliver, err := pingPong(small, 1000)
	if err != nil {
		return err
	}
	out["transport.send_ns.small"] = send
	out["transport.deliver_us.small"] = deliver / 1e3
	if send, _, err = pingPong(large, 100); err != nil {
		return err
	}
	out["transport.send_ns.large"] = send
	return nil
}
