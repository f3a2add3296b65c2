package scenario

import (
	"time"

	"prestigebft/internal/client"
	"prestigebft/internal/harness"
	"prestigebft/internal/types"
)

// Environment is the seam between the scenario engine and the world a run
// happens in: the deterministic discrete-event simulator (simenv.go, one
// harness.Cluster) or a live loopback-TCP cluster (internal/liveharness,
// real runtime.Runtime replicas behind a transport fault layer).
//
// A world implements only what is physics there: the clock and the
// lifecycle, stopping and restarting a server, and applying a fabric state
// to its links. Everything else is the engine's and written once: which
// fault state is in force (Fabric, mutated by the Actions), swapping a
// server's Byzantine behaviour (through the Deployment's wrappers), and
// every observation the verdicts are computed from, read directly from the
// Deployment and the Metrics both worlds host.
//
// All times are scenario time: offsets from cluster start. The simulator
// equates scenario time with virtual time; a live environment maps it onto
// wall-clock deadlines and reports its measurement tolerances through
// Timing.
//
// The lifecycle is strict: Schedule, then Start, then RunUntil (monotonic),
// then Close, then read the ledgers. Deployment's ledger reads are only
// race-free after Close in a live world; Metrics and ClientStats are safe
// at any point of a run.
type Environment interface {
	// Schedule registers fn to run at the absolute scenario-time offset
	// at. Must only be called before Start. Functions due at the same
	// offset run in registration order.
	Schedule(at time.Duration, fn func())
	// Start boots the servers and the client workload.
	Start()
	// RunUntil advances (simulator) or blocks (live) until scenario time
	// reaches at. Calls must be monotonically non-decreasing.
	RunUntil(at time.Duration)
	// Close tears the environment down. Idempotent.
	Close()

	// Crash fail-stops a server; Recover brings it back over the ledger it
	// kept, behind whatever fabric is in force.
	Crash(id types.ServerID)
	Recover(id types.ServerID)
	// SetFabric makes f the fault state of every link, replacing the
	// previous one. It composes with Crash and Recover: neither undoes the
	// other.
	SetFabric(f Fabric)

	// Deployment is the replicas, fault wrappers and options of the run.
	Deployment() *harness.Deployment
	// Metrics is the run's collector of commits and protocol traces.
	Metrics() *harness.Metrics
	// ClientStats returns every workload client's statistics so far,
	// client i+1's at index i.
	ClientStats() []client.Stats
	// Traffic returns the messages and bytes offered to the fabric so far,
	// over all endpoints.
	Traffic() (msgs, bytes uint64)
	// Timing returns the environment's measurement tolerances: slack
	// multiplies liveness bounds (wall-clock runs pay scheduling and
	// real-crypto overheads the simulator does not model), and margin
	// shifts the leading edge of no-commit stall windows (live event
	// injection has in-flight traffic the simulator retires instantly).
	// The simulator returns (1, 0).
	Timing() (slack float64, margin time.Duration)
}

// Fabric is the network fault state of a run: the partition and the
// gray-failure layer in force. The engine holds the one declared value,
// the Actions edit it, and every edit is handed whole to
// Environment.SetFabric, so a world never has to remember what was
// declared before — only apply what it is given. An action installs a fresh
// Groups map or Degrade, never edits one in place, so a world may keep the
// value it was handed. The zero value is the healthy fabric at the
// deployment's base profile.
type Fabric struct {
	// Groups assigns servers to partition groups; servers in different
	// groups cannot talk, an unlisted server is in group 0, and nil means
	// no partition. Clients keep reaching every server.
	Groups map[types.ServerID]int
	// Degrade, when non-nil, is the gray-failure layer on every link.
	Degrade *Degrade
}
