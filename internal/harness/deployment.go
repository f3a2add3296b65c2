package harness

import (
	"fmt"
	"math/rand"
	"time"

	"prestigebft/internal/client"
	"prestigebft/internal/consensus"
	"prestigebft/internal/core"
	"prestigebft/internal/crypto"
	"prestigebft/internal/faults"
	"prestigebft/internal/reputation"
	"prestigebft/internal/types"
)

// Deployment is the part of a cluster that does not depend on the world
// hosting it: the normalized options, the key registry, the replicas with
// their fault wrappers, and the client keys. NewCluster hosts one on the
// simulator; liveharness.New hosts one on TCP transports. Both run the same
// nodes from the same seeds, which is what makes a scenario "the same" in
// the two worlds.
type Deployment struct {
	Opts     Options
	Registry *crypto.Registry
	Replicas []consensus.Replica // wrapped replicas, index = ServerID-1
	Nodes    []*core.Node        // PrestigeBFT nodes (nil entries for baselines)
	Wrappers []*faults.Wrapper   // fault wrappers (nil for correct servers)

	clientKeys map[types.ClientID]*crypto.KeyPair
}

// NewDeployment generates the keys and builds every replica. puzzleBits is
// core.Config.PuzzleBitsPerRP: negative where a time model carries the
// difficulty (the simulator), the real difficulty where hashes are computed.
func NewDeployment(opts Options, puzzleBits int) *Deployment {
	o := opts.withDefaults()
	reg, serverKeys, clientKeys := crypto.GenerateDeployment(uint64(o.Seed)+0x5eed, o.N, o.Clients)
	reg.VerifySignatures = o.VerifySignatures
	d := &Deployment{
		Opts:       o,
		Registry:   reg,
		Replicas:   make([]consensus.Replica, o.N),
		Nodes:      make([]*core.Node, o.N),
		Wrappers:   make([]*faults.Wrapper, o.N),
		clientKeys: clientKeys,
	}

	// F1 victim assignment: faulty servers mirror the timeout RNG of f
	// randomly picked correct servers.
	seedRNG := rand.New(rand.NewSource(o.Seed * 7919))
	rngSeed := make([]int64, o.N+1)
	var correct []types.ServerID
	for i := 1; i <= o.N; i++ {
		rngSeed[i] = o.Seed<<16 + int64(i)
		if !o.Faults[types.ServerID(i)].IsFaulty() {
			correct = append(correct, types.ServerID(i))
		}
	}
	if o.TimeoutAttack && len(correct) > 0 {
		for i := 1; i <= o.N; i++ {
			if o.Faults[types.ServerID(i)].IsFaulty() {
				victim := correct[seedRNG.Intn(len(correct))]
				rngSeed[i] = rngSeed[victim]
			}
		}
	}

	for i := 1; i <= o.N; i++ {
		id := types.ServerID(i)
		spec := o.Faults[id]
		nodeRNG := rand.New(rand.NewSource(rngSeed[i]))

		var replica consensus.Replica
		var node *core.Node
		if o.Protocol == PrestigeBFT {
			cfg := core.Config{
				ID:                 id,
				N:                  o.N,
				Keys:               serverKeys[id],
				Registry:           reg,
				BatchSize:          o.BatchSize,
				PipelineDepth:      o.PipelineDepth,
				CheckpointInterval: o.CheckpointInterval,
				TimeoutMin:         o.TimeoutMin,
				TimeoutMax:         o.TimeoutMax,
				ViewPolicy:         o.ViewPolicy,
				RefreshThreshold:   o.RefreshThreshold,
				PuzzleBitsPerRP:    puzzleBits,
				RNG:                nodeRNG,
			}
			if o.StateMachine != nil {
				cfg.StateMachine = o.StateMachine()
			}
			if o.Engine != nil {
				cfg.Engine = o.Engine()
			}
			if spec.RepeatedVC {
				// The attacker's levers: minimal trigger delay (campaign
				// the instant a change is possible — still enough for an
				// election round trip, which also bounds its candidacy
				// timer) and, under S2, the compensation gate.
				cfg.TimeoutMin = 20 * time.Millisecond
				cfg.TimeoutMax = 25 * time.Millisecond
				if spec.Smart {
					if cfg.Engine == nil {
						cfg.Engine = reputation.New()
					}
					cfg.CampaignGate = func(res reputation.Result) bool { return res.Compensated }
				}
			}
			node = core.New(cfg)
			replica = node
		} else {
			f, ok := protocolFactories[o.Protocol]
			if !ok {
				panic(fmt.Sprintf("harness: protocol %q not registered", o.Protocol))
			}
			replica = f(FactoryEnv{ID: id, N: o.N, Keys: serverKeys[id], Registry: reg, Opts: &d.Opts, RNG: nodeRNG})
		}
		d.Nodes[i-1] = node
		wrap := spec.IsFaulty()
		for _, w := range o.WrapServers {
			if w == id {
				wrap = true
			}
		}
		if wrap {
			w := faults.Wrap(replica, node, spec)
			d.Wrappers[i-1] = w
			replica = w
		}
		d.Replicas[i-1] = replica
	}
	return d
}

// ChainHeight returns a server's committed chain height. ok is false when
// the server exposes no readable ledger (a baseline replica). Like the two
// reads below it is only race-free while nothing drives the replica: between
// simulator steps, or once a live environment has stopped it.
func (d *Deployment) ChainHeight(id types.ServerID) (h types.SeqNum, ok bool) {
	node := d.Nodes[id-1]
	if node == nil {
		return 0, false
	}
	return node.Store().TxHeight(), true
}

// BlockHash returns the hash of the committed block at seq on the given
// server, the comparison point of committed-prefix safety. ok is false when
// the server has no readable ledger or no longer retains the block: it was
// compacted below the server's certified log base, whose certificate already
// proves prefix agreement there.
func (d *Deployment) BlockHash(id types.ServerID, seq types.SeqNum) (types.Digest, bool) {
	node := d.Nodes[id-1]
	if node == nil {
		return types.Digest{}, false
	}
	blk := node.Store().TxBlock(seq)
	if blk == nil {
		return types.Digest{}, false
	}
	return blk.Hash(), true
}

// RetainedBlocks returns how many txBlocks the server currently retains, the
// quantity checkpoint compaction bounds. ok mirrors ChainHeight.
func (d *Deployment) RetainedBlocks(id types.ServerID) (blocks int, ok bool) {
	node := d.Nodes[id-1]
	if node == nil {
		return 0, false
	}
	return node.Store().RetainedTxBlocks(), true
}

// ClientConfig is workload client id's configuration; every world builds its
// clients from it.
func (d *Deployment) ClientConfig(id types.ClientID) client.Config {
	o := &d.Opts
	var payload func(int) []byte
	if o.ClientPayload != nil {
		payload = func(seq int) []byte { return o.ClientPayload(id, seq) }
	}
	return client.Config{
		ID:          id,
		Keys:        d.clientKeys[id],
		Registry:    d.Registry,
		N:           o.N,
		Payload:     payload,
		PayloadSize: o.PayloadSize,
		Timeout:     o.ClientTimeout,
		ThinkTime:   o.ClientThinkTime,
		MaxRequests: o.MaxRequestsPerClient,
	}
}
