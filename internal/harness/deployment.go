package harness

import (
	"fmt"
	"math/rand"

	"prestigebft/internal/client"
	"prestigebft/internal/consensus"
	"prestigebft/internal/core"
	"prestigebft/internal/crypto"
	"prestigebft/internal/faults"
	"prestigebft/internal/ledger"
	"prestigebft/internal/types"
)

// Deployment is the part of a cluster that does not depend on the world
// hosting it: the normalized options, the key registry, the replicas with
// their fault wrappers, and the client keys. NewCluster hosts one on the
// simulator; liveharness.New hosts one on TCP transports. Both run the same
// replicas from the same seeds, which is what makes a scenario "the same" in
// the two worlds.
type Deployment struct {
	Opts     Options
	Registry *crypto.Registry
	Replicas []consensus.Replica // wrapped replicas, index = ServerID-1
	// Nodes holds each replica the factory built as a *core.Node (the
	// PrestigeBFT and Prosecutor rows), unwrapped, for the reads only they
	// answer, such as reputations; nil for HotStuff and SBFT.
	Nodes    []*core.Node
	Wrappers []*faults.Wrapper // fault wrappers (nil for correct servers)

	ledgers    []*ledger.Store // nil where the replica exposes no ledger
	clientKeys map[types.ClientID]*crypto.KeyPair
}

// NewDeployment generates the keys and builds every replica through its
// protocol's factory. puzzleBits is core.Config.PuzzleBitsPerRP: negative
// where a time model carries the difficulty (the simulator), the real
// difficulty where hashes are computed.
func NewDeployment(opts Options, puzzleBits int) *Deployment {
	o := opts.withDefaults()
	factory, ok := protocolFactories[o.Protocol]
	if !ok {
		panic(fmt.Sprintf("harness: unknown protocol %q", o.Protocol))
	}
	reg, serverKeys, clientKeys := crypto.GenerateDeployment(uint64(o.Seed)+0x5eed, o.N, o.Clients)
	reg.VerifySignatures = o.VerifySignatures
	d := &Deployment{
		Opts:       o,
		Registry:   reg,
		Replicas:   make([]consensus.Replica, o.N),
		Nodes:      make([]*core.Node, o.N),
		Wrappers:   make([]*faults.Wrapper, o.N),
		ledgers:    make([]*ledger.Store, o.N),
		clientKeys: clientKeys,
	}

	// F1 victim assignment: the servers listed in Faults mirror the timeout
	// RNG of randomly picked unlisted (correct) servers.
	seedRNG := rand.New(rand.NewSource(o.Seed * 7919))
	rngSeed := make([]int64, o.N+1)
	var correct []types.ServerID
	for i := 1; i <= o.N; i++ {
		rngSeed[i] = o.Seed<<16 + int64(i)
		if _, listed := o.Faults[types.ServerID(i)]; !listed {
			correct = append(correct, types.ServerID(i))
		}
	}
	if o.TimeoutAttack && len(correct) > 0 {
		for i := 1; i <= o.N; i++ {
			if _, listed := o.Faults[types.ServerID(i)]; listed {
				victim := correct[seedRNG.Intn(len(correct))]
				rngSeed[i] = rngSeed[victim]
			}
		}
	}

	for i := 1; i <= o.N; i++ {
		id := types.ServerID(i)
		spec := o.Faults[id]
		replica := factory(FactoryEnv{
			ID: id, N: o.N, Keys: serverKeys[id], Registry: reg, Opts: &d.Opts,
			RNG:  rand.New(rand.NewSource(rngSeed[i])),
			Spec: spec, PuzzleBits: puzzleBits,
		})
		d.Nodes[i-1], _ = replica.(*core.Node)
		if l, ok := replica.(interface{ Store() *ledger.Store }); ok {
			d.ledgers[i-1] = l.Store()
		}
		wrap := spec.IsFaulty()
		for _, w := range o.WrapServers {
			if w == id {
				wrap = true
			}
		}
		if wrap {
			f, ok := replica.(consensus.Faultable)
			if !ok {
				panic(fmt.Sprintf("harness: protocol %q replicas do not answer the fault contract", o.Protocol))
			}
			w := faults.Wrap(f, spec)
			d.Wrappers[i-1] = w
			replica = w
		}
		d.Replicas[i-1] = replica
	}
	return d
}

// ChainHeight returns a server's committed chain height. ok is false when
// the server's replica exposes no ledger. Like the two reads below it is
// only race-free while nothing drives the replica: between simulator steps,
// or once a live environment has stopped it.
func (d *Deployment) ChainHeight(id types.ServerID) (h types.SeqNum, ok bool) {
	l := d.ledgers[id-1]
	if l == nil {
		return 0, false
	}
	return l.TxHeight(), true
}

// BlockHash returns the hash of the committed block at seq on the given
// server, the comparison point of committed-prefix safety. ok is false when
// the server exposes no ledger or no longer retains the block: it was
// compacted below the server's certified log base, whose certificate already
// proves prefix agreement there.
func (d *Deployment) BlockHash(id types.ServerID, seq types.SeqNum) (types.Digest, bool) {
	l := d.ledgers[id-1]
	if l == nil {
		return types.Digest{}, false
	}
	blk := l.TxBlock(seq)
	if blk == nil {
		return types.Digest{}, false
	}
	return blk.Hash(), true
}

// RetainedBlocks returns how many txBlocks the server currently retains, the
// quantity checkpoint compaction bounds. ok mirrors ChainHeight.
func (d *Deployment) RetainedBlocks(id types.ServerID) (blocks int, ok bool) {
	l := d.ledgers[id-1]
	if l == nil {
		return 0, false
	}
	return l.RetainedTxBlocks(), true
}

// Covered reports whether the server's client table covers client c's
// request with timestamp ts: the server's ledger applied that request or a
// later one of c. ok mirrors ChainHeight.
func (d *Deployment) Covered(id types.ServerID, c types.ClientID, ts int64) (covered, ok bool) {
	l := d.ledgers[id-1]
	if l == nil {
		return false, false
	}
	_, covered = l.Covered(c, ts)
	return covered, true
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
