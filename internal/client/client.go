// Package client implements the PrestigeBFT client protocol (§4.3 and
// §4.2.1): send a proposal to the leader, wait for f+1 matching Notif
// messages, and broadcast a complaint if the proposal is not confirmed in
// time — the trigger of failure-detection view changes.
//
// "In time" follows the client's own commit latency, the way TCP sets its
// retransmission timer (RFC 6298): the client waits srtt + 4·rttvar over its
// past requests, never less than two replica retransmission periods
// (types.RetransmitPeriod) and never more than Config.Timeout, the longest
// complaint wait. Before its first sample it waits the full Timeout. Each
// re-complaint doubles the wait up to Timeout, and the doubled wait carries
// over to the next requests until one of them completes without a complaint.
// A request that complained feeds no sample (Karn's rule): its latency, an
// outage's, never enters srtt; the first clean sample after it sets the wait
// from srtt again. A latency that outgrows the wait thus costs one complaint,
// not one per request.
//
// The leader is the one the f+1 Notifs that completed the previous request
// all named (Notif.Leader). Without such an agreed hint — the first request,
// or a quorum that disagreed or named nobody — the proposal goes to every
// server. A stale hint names a deposed leader, which passes the proposal on.
//
// Clients are closed-loop: each keeps exactly one transaction outstanding
// and submits the next one as soon as the previous commits, matching the
// paper's workload methodology ("clients generated random requests ... and
// waited for one request to complete before sending the next one").
package client

import (
	"slices"
	"time"

	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// Env is the runtime environment a client operates in. The simulator and
// the live runtime provide implementations.
type Env interface {
	// Now returns the current time.
	Now() time.Duration
	// Send sends msg to one server.
	Send(to types.ServerID, msg types.Message)
	// Broadcast sends msg to every server.
	Broadcast(msg types.Message)
	// SetTimer schedules fn and returns a cancel function.
	SetTimer(d time.Duration, fn func()) (cancel func())
}

// Stats aggregates a client's completed requests.
type Stats struct {
	Committed  int
	Rejected   int // committed with status=false (application rejection)
	Complaints int
	Latencies  []time.Duration
	// Acked is the timestamp of the last request f+1 servers acknowledged,
	// accepted or rejected; 0 before the first.
	Acked int64
}

// Latencies are request latencies in ascending order.
type Latencies []time.Duration

// MergeLatencies merges the latencies of every client into one sorted slice,
// for any number of Percentile and Mean reads.
func MergeLatencies(stats []Stats) Latencies {
	var ls Latencies
	for _, st := range stats {
		ls = append(ls, st.Latencies...)
	}
	slices.Sort(ls)
	return ls
}

// Percentile returns the p-th percentile (0-100): the sample at index
// ⌊p/100·(n−1)⌋, or 0 with no samples.
func (ls Latencies) Percentile(p float64) time.Duration {
	if len(ls) == 0 {
		return 0
	}
	return ls[int(p/100*float64(len(ls)-1))]
}

// Mean returns the average latency, or 0 with no samples.
func (ls Latencies) Mean() time.Duration {
	if len(ls) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range ls {
		sum += l
	}
	return sum / time.Duration(len(ls))
}

// Config parameterizes a client.
type Config struct {
	ID       types.ClientID
	Keys     *crypto.KeyPair
	Registry *crypto.Registry
	N        int // cluster size, for the f+1 notification quorum

	// Payload generates the i-th transaction body. Default: PayloadSize
	// zero bytes.
	Payload func(i int) []byte
	// PayloadSize is the paper's m (message size); used when Payload is
	// nil. Default 32 bytes.
	PayloadSize int

	// Timeout is the longest complaint wait: the wait before the first
	// latency sample, and the cap on the adaptive wait and its backoff.
	// Default 1s.
	Timeout time.Duration
	// ThinkTime delays the next request after a commit, throttling the
	// client's offered load. Zero keeps the loop closed and maximally
	// aggressive.
	ThinkTime time.Duration
	// MaxRequests stops the client after this many commits; 0 = unlimited.
	MaxRequests int
}

// Client is one closed-loop workload source.
type Client struct {
	cfg Config
	env Env

	seq         int
	outstanding *types.Prop
	outD        types.Digest
	sentAt      time.Duration
	// notifs and rejects map each server that acknowledged the outstanding
	// request, accepted or rejected, to the leader its Notif named.
	notifs      map[types.ServerID]types.ServerID
	rejects     map[types.ServerID]types.ServerID
	cancelTimer func()
	stopped     bool
	// leader is where the next proposal goes; 0 means every server.
	leader types.ServerID

	// srtt and rttvar are the smoothed latency and its mean deviation over
	// the requests that completed without a complaint; sampled reports
	// whether there was one.
	srtt, rttvar time.Duration
	sampled      bool
	// wait is the complaint wait the next timer arms: set from srtt by each
	// sample, doubled by each complaint. complained reports whether the
	// outstanding request has complained, which bars it from sampling.
	wait       time.Duration
	complained bool

	// Stats is the client's accumulated results.
	Stats Stats
}

// New creates a client bound to its runtime environment.
func New(cfg Config, env Env) *Client {
	if cfg.PayloadSize == 0 {
		cfg.PayloadSize = 32
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = time.Second
	}
	return &Client{cfg: cfg, env: env, wait: cfg.Timeout}
}

// ID returns the client identity.
func (c *Client) ID() types.ClientID { return c.cfg.ID }

// Start submits the first request.
func (c *Client) Start() { c.next() }

// Stop halts the request loop after the current request completes.
func (c *Client) Stop() { c.stopped = true }

// next builds and broadcasts the client's next proposal.
func (c *Client) next() {
	if c.stopped || (c.cfg.MaxRequests > 0 && c.Stats.Committed >= c.cfg.MaxRequests) {
		c.outstanding = nil
		return
	}
	c.seq++
	var payload []byte
	if c.cfg.Payload != nil {
		payload = c.cfg.Payload(c.seq)
	} else {
		payload = make([]byte, c.cfg.PayloadSize)
	}
	tx := types.Transaction{
		// Unique per (client, seq): the timestamp the paper's t.
		Timestamp: int64(c.cfg.ID)<<32 | int64(c.seq),
		Client:    c.cfg.ID,
		Data:      payload,
	}
	prop := &types.Prop{Tx: tx, D: tx.Digest()}
	prop.Sig = c.cfg.Keys.Sign(prop.SigningBytes())
	c.outstanding = prop
	c.outD = prop.D
	c.sentAt = c.env.Now()
	c.notifs = make(map[types.ServerID]types.ServerID, types.ConfirmSize(c.cfg.N))
	c.rejects = make(map[types.ServerID]types.ServerID)
	if c.leader != 0 {
		c.env.Send(c.leader, prop)
	} else {
		c.env.Broadcast(prop)
	}
	c.complained = false
	c.armTimeout()
}

// minComplaintWait is the shortest complaint wait: one retransmission each
// of a lost Ord and a lost Cmt.
const minComplaintWait = 2 * types.RetransmitPeriod

// observe folds one latency into srtt and rttvar with RFC 6298's gains
// (α = 1/8, β = 1/4; the first sample sets srtt = r and rttvar = r/2) and
// sets the wait to srtt + 4·rttvar, clamped to [minComplaintWait, Timeout].
func (c *Client) observe(r time.Duration) {
	if !c.sampled {
		c.srtt, c.rttvar, c.sampled = r, r/2, true
	} else {
		dev := c.srtt - r
		if dev < 0 {
			dev = -dev
		}
		c.rttvar = (3*c.rttvar + dev) / 4
		c.srtt = (7*c.srtt + r) / 8
	}
	c.wait = min(max(c.srtt+4*c.rttvar, minComplaintWait), c.cfg.Timeout)
}

func (c *Client) armTimeout() {
	if c.cancelTimer != nil {
		c.cancelTimer()
	}
	c.cancelTimer = c.env.SetTimer(c.wait, c.onTimeout)
}

// OnNotif processes a server notification. The transaction is confirmed
// once f+1 servers sent matching Notifs.
func (c *Client) OnNotif(from types.ServerID, m *types.Notif) {
	if c.outstanding == nil || m.TxD != c.outD {
		return
	}
	if !c.cfg.Registry.VerifyServer(from, m.SigningBytes(), m.Sig) {
		return
	}
	acks := c.rejects
	if m.Status {
		acks = c.notifs
	}
	acks[from] = m.Leader
	if len(acks) >= types.ConfirmSize(c.cfg.N) {
		c.leader = agreedLeader(acks)
		c.complete(m.Status)
	}
}

// agreedLeader is the leader every Notif of a completing quorum named, or 0
// when they disagree or name none. A quorum holds f+1 servers, at least one
// of them correct, so f Byzantine servers cannot agree on a leader alone.
func agreedLeader(quorum map[types.ServerID]types.ServerID) types.ServerID {
	var agreed types.ServerID
	for _, leader := range quorum {
		if leader == 0 || (agreed != 0 && leader != agreed) {
			return 0
		}
		agreed = leader
	}
	return agreed
}

func (c *Client) complete(accepted bool) {
	lat := c.env.Now() - c.sentAt
	c.Stats.Latencies = append(c.Stats.Latencies, lat)
	c.Stats.Acked = c.outstanding.Tx.Timestamp
	if !c.complained {
		c.observe(lat)
	}
	if accepted {
		c.Stats.Committed++
	} else {
		c.Stats.Rejected++
	}
	if c.cancelTimer != nil {
		c.cancelTimer()
		c.cancelTimer = nil
	}
	c.outstanding = nil
	if c.cfg.ThinkTime > 0 {
		c.env.SetTimer(c.cfg.ThinkTime, c.next)
		return
	}
	c.next()
}

// onTimeout broadcasts a complaint (§4.2.1): the proposal could not be
// confirmed in time, so the client suspects the leader.
func (c *Client) onTimeout() {
	if c.outstanding == nil || c.stopped {
		return
	}
	c.Stats.Complaints++
	compt := &types.Compt{Prop: *c.outstanding}
	compt.Sig = c.cfg.Keys.Sign(compt.SigningBytes())
	c.env.Broadcast(compt)
	c.complained = true
	c.wait = min(2*c.wait, c.cfg.Timeout)
	c.armTimeout()
}

// Outstanding reports whether the client is waiting on a request.
func (c *Client) Outstanding() bool { return c.outstanding != nil }
