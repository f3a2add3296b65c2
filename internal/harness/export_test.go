package harness

import (
	"prestigebft/internal/consensus"
	"prestigebft/internal/types"
)

// Factory returns protocol p's registered replica factory.
func Factory(p Protocol) ReplicaFactory { return protocolFactories[p] }

// Host replaces what server id's simulated runtime hosts — its replica,
// fault wrapper included — with decorate(replica). Call before Start.
func (c *Cluster) Host(id types.ServerID, decorate func(consensus.Replica) consensus.Replica) {
	rt := c.runtimes[id-1]
	rt.replica = decorate(rt.replica)
}
