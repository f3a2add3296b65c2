// Package prestigebft is a from-scratch Go implementation of PrestigeBFT
// (Zhang et al., ICDE 2024): a leader-based Byzantine fault-tolerant
// consensus algorithm with an *active* view-change protocol driven by
// reputation mechanisms, plus the three baselines the paper evaluates
// against (HotStuff, SBFT, Prosecutor), a deterministic discrete-event
// cluster simulator, a Byzantine fault injector, and a benchmark harness
// that regenerates every figure of the paper's evaluation.
//
// # Quick start
//
//	cluster := prestigebft.NewSimCluster(prestigebft.ClusterOptions{
//		N:       4,
//		Clients: 8,
//	})
//	cluster.Start()
//	cluster.Run(2 * time.Second) // two seconds of *virtual* time
//	fmt.Println(cluster.Metrics.TotalTxs, "transactions committed")
//
// The simulator runs a whole BFT deployment — servers, clients, network,
// CPU costs, proof-of-work — inside one goroutine under a virtual clock, so
// "two seconds" of cluster time complete in milliseconds and every run is
// reproducible from its seed. For live deployments over TCP, see
// cmd/prestige-server and cmd/prestige-client.
//
// The subsystems live in internal packages:
//
//   - internal/core — the PrestigeBFT node (view change + replication)
//   - internal/reputation — the reputation engine (Algorithm 1)
//   - internal/baseline/... — HotStuff and SBFT
//   - internal/harness — the factory table that builds every protocol
//     (Prosecutor is a PrestigeBFT node with a non-compensating reputation
//     engine) and the simulated cluster
//   - internal/experiments — one runner per figure; each cell is a
//     scenario the engine (internal/scenario) runs and checks
//   - internal/sim — the discrete-event simulator
//   - internal/faults — Byzantine behavior injection (F1-F4, S1/S2)
//
// This root package re-exports the surface a downstream user needs.
package prestigebft

import (
	"sort"
	"time"

	"prestigebft/internal/core"
	"prestigebft/internal/experiments"
	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/ledger"
	"prestigebft/internal/reputation"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// Re-exported identifiers.
type (
	// ServerID identifies a consensus server (1..n).
	ServerID = types.ServerID
	// ClientID identifies a client (1..c).
	ClientID = types.ClientID
	// View is a monotonically increasing configuration number.
	View = types.View
	// SeqNum is a txBlock sequence number.
	SeqNum = types.SeqNum
	// Transaction is an opaque client request.
	Transaction = types.Transaction
	// TxBlock is a committed transaction block.
	TxBlock = types.TxBlock
	// VcBlock is a committed view-change block.
	VcBlock = types.VcBlock

	// ReputationEngine computes reputation penalties (Algorithm 1).
	ReputationEngine = reputation.Engine
	// ReputationSnapshot is the chain state one CalcRP evaluation reads.
	ReputationSnapshot = reputation.Snapshot
	// ReputationResult is the outcome of one CalcRP evaluation.
	ReputationResult = reputation.Result

	// StateMachine consumes committed transactions in order.
	StateMachine = ledger.StateMachine
	// KVStore is the bundled key-value state machine.
	KVStore = ledger.KVStore

	// FaultSpec describes one server's Byzantine behavior.
	FaultSpec = faults.Spec
	// FaultMode is the misbehavior flavor (Quiet = F2, Equivocate = F3).
	FaultMode = faults.Mode

	// Protocol selects a consensus implementation.
	Protocol = harness.Protocol
	// ClusterOptions configures a simulated cluster.
	ClusterOptions = harness.Options
	// Cluster is a simulated deployment.
	Cluster = harness.Cluster
	// Metrics aggregates a run's measurements.
	Metrics = harness.Metrics

	// NodeConfig parameterizes a single PrestigeBFT node for embedding in
	// custom runtimes.
	NodeConfig = core.Config
	// Node is a PrestigeBFT consensus server.
	Node = core.Node
)

// Protocols available to NewSimCluster.
const (
	// PrestigeBFT is the paper's algorithm.
	PrestigeBFT = harness.PrestigeBFT
	// HotStuff is the passive-view-change 3-phase baseline.
	HotStuff = harness.HotStuff
	// SBFT is the linear dual-path baseline.
	SBFT = harness.SBFT
	// Prosecutor is the PoW-penalization baseline.
	Prosecutor = harness.Prosecutor
)

// Fault modes.
const (
	// FaultCorrect disables misbehavior.
	FaultCorrect = faults.Correct
	// FaultQuiet drops all traffic (F2).
	FaultQuiet = faults.Quiet
	// FaultEquivocate corrupts outbound messages (F3).
	FaultEquivocate = faults.Equivocate
)

// NewSimCluster builds a simulated cluster. Call Start, then Run.
func NewSimCluster(opts ClusterOptions) *Cluster { return harness.NewCluster(opts) }

// NewReputationEngine returns a reputation engine with the paper's defaults
// (Cδ = 1).
func NewReputationEngine() *ReputationEngine { return reputation.New() }

// NewNode builds a single PrestigeBFT node for embedding in a custom
// runtime (implementing the effect loop yourself). Most users want
// NewSimCluster or the live runtime under cmd/ instead.
func NewNode(cfg NodeConfig) *Node { return core.New(cfg) }

// NewKVStore returns the bundled key-value state machine.
func NewKVStore() *KVStore { return ledger.NewKVStore() }

// EncodeKVSet builds a KV "set" transaction payload.
func EncodeKVSet(key string, value []byte) []byte {
	return ledger.EncodeKVOp(ledger.KVSet, key, value)
}

// EncodeKVDel builds a KV "delete" transaction payload.
func EncodeKVDel(key string) []byte {
	return ledger.EncodeKVOp(ledger.KVDel, key, nil)
}

// Experiment runs a named paper experiment (fig4c, fig6..fig14, peak) at
// quick scale and returns its rendered result. See DESIGN.md §5.
func Experiment(name string, full bool) (string, bool) {
	runner, ok := experiments.Experiments[name]
	if !ok {
		return "", false
	}
	scale := experiments.Quick
	if full {
		scale = experiments.Full
	}
	res, _ := runner(scale).Run()
	return res.String(), true
}

// ExperimentNames lists the available experiment runners, sorted.
func ExperimentNames() []string {
	names := make([]string, 0, len(experiments.Experiments))
	for n := range experiments.Experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// VirtualTime converts a duration into the simulator's time unit, for use
// with Metrics methods like TPS and Availability.
func VirtualTime(d time.Duration) sim.Time { return sim.Duration(d) }
