package client

import (
	"slices"
	"sort"
	"testing"
	"time"

	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// fakeEnv is a manually advanced client environment.
type fakeEnv struct {
	now        time.Duration
	broadcasts []types.Message
	sends      []sent
	timers     []*fakeTimer
}

// sent is one message a client addressed to a single server.
type sent struct {
	to  types.ServerID
	msg types.Message
}

type fakeTimer struct {
	at       time.Duration
	fn       func()
	canceled bool
}

func (e *fakeEnv) Now() time.Duration { return e.now }
func (e *fakeEnv) Send(to types.ServerID, msg types.Message) {
	e.sends = append(e.sends, sent{to, msg})
}
func (e *fakeEnv) Broadcast(msg types.Message) {
	e.broadcasts = append(e.broadcasts, msg)
}
func (e *fakeEnv) SetTimer(d time.Duration, fn func()) func() {
	t := &fakeTimer{at: e.now + d, fn: fn}
	e.timers = append(e.timers, t)
	return func() { t.canceled = true }
}

func (e *fakeEnv) advance(d time.Duration) {
	e.now += d
	for _, t := range e.timers {
		if !t.canceled && t.at <= e.now && t.fn != nil {
			fn := t.fn
			t.fn = nil
			fn()
		}
	}
}

func newTestClient(t *testing.T) (*Client, *fakeEnv, *crypto.Registry, map[types.ServerID]*crypto.KeyPair) {
	t.Helper()
	return newTimeoutClient(t, time.Second)
}

// newTimeoutClient is newTestClient with the given longest complaint wait.
func newTimeoutClient(t *testing.T, timeout time.Duration) (*Client, *fakeEnv, *crypto.Registry, map[types.ServerID]*crypto.KeyPair) {
	t.Helper()
	reg, serverKeys, clientKeys := crypto.GenerateDeployment(55, 4, 1)
	env := &fakeEnv{}
	c := New(Config{
		ID: 1, Keys: clientKeys[1], Registry: reg, N: 4,
		PayloadSize: 16, Timeout: timeout,
	}, env)
	return c, env, reg, serverKeys
}

func notifFor(prop *types.Prop, from types.ServerID, keys *crypto.KeyPair, status bool) *types.Notif {
	return hintedNotif(prop, from, keys, status, 0)
}

// hintedNotif is notifFor naming leader as the sender's current leader.
func hintedNotif(prop *types.Prop, from types.ServerID, keys *crypto.KeyPair, status bool, leader types.ServerID) *types.Notif {
	n := &types.Notif{From: from, Leader: leader, V: 1, N: 1, TxD: prop.D, Status: status}
	n.Sig = keys.Sign(n.SigningBytes())
	return n
}

// TestClientFollowsAgreedLeaderHint: the next proposal goes to the one
// leader every Notif of the completing quorum named, and to every server
// when the quorum disagrees or names nobody. A complaint always goes to
// every server.
func TestClientFollowsAgreedLeaderHint(t *testing.T) {
	c, env, _, serverKeys := newTestClient(t)
	c.Start()
	// complete answers the outstanding proposal with a quorum whose two
	// Notifs name the given leaders, and returns the proposal that follows.
	outstanding := env.broadcasts[0].(*types.Prop)
	complete := func(l1, l2 types.ServerID, status bool) {
		t.Helper()
		c.OnNotif(1, hintedNotif(outstanding, 1, serverKeys[1], status, l1))
		c.OnNotif(2, hintedNotif(outstanding, 2, serverKeys[2], status, l2))
		if c.Stats.Committed+c.Stats.Rejected != c.seq-1 {
			t.Fatalf("request %d did not complete", c.seq-1)
		}
	}
	nextSent := func(wantTo types.ServerID) {
		t.Helper()
		if wantTo == 0 {
			if len(env.sends) != 0 {
				t.Fatalf("proposal %d sent to %d, want a broadcast", c.seq, env.sends[0].to)
			}
			outstanding = env.broadcasts[len(env.broadcasts)-1].(*types.Prop)
			return
		}
		if len(env.sends) != 1 || env.sends[0].to != wantTo {
			t.Fatalf("proposal %d: sends %+v, want one to %d", c.seq, env.sends, wantTo)
		}
		outstanding = env.sends[0].msg.(*types.Prop)
		env.sends = nil
	}

	complete(3, 3, true)
	nextSent(3)
	bcasts := len(env.broadcasts)
	// The hint holds while quorums agree, rejections included.
	complete(3, 3, false)
	nextSent(3)
	// A complaint goes to every server, hint or not.
	env.advance(1100 * time.Millisecond)
	if c.Stats.Complaints != 1 || len(env.broadcasts) != bcasts+1 {
		t.Fatalf("complaints %d, broadcasts %d, want one complaint broadcast", c.Stats.Complaints, len(env.broadcasts)-bcasts)
	}
	if _, ok := env.broadcasts[bcasts].(*types.Compt); !ok || len(env.sends) != 0 {
		t.Fatalf("the complaint was %T with sends %+v, want a broadcast Compt", env.broadcasts[bcasts], env.sends)
	}
	// One Notif naming another leader: no agreed hint, so a broadcast.
	complete(3, 4, true)
	nextSent(0)
	complete(4, 4, true)
	nextSent(4)
	// A quorum naming nobody (a baseline's Notifs) clears the hint.
	complete(0, 0, true)
	nextSent(0)
	complete(0, 2, true)
	nextSent(0)
}

func TestClientClosedLoop(t *testing.T) {
	c, env, _, serverKeys := newTestClient(t)
	c.Start()
	if len(env.broadcasts) != 1 {
		t.Fatalf("broadcasts = %d, want 1", len(env.broadcasts))
	}
	prop := env.broadcasts[0].(*types.Prop)
	if !c.Outstanding() {
		t.Fatal("no outstanding request after Start")
	}
	// One notification is not enough (quorum f+1 = 2).
	env.advance(10 * time.Millisecond)
	c.OnNotif(1, notifFor(prop, 1, serverKeys[1], true))
	if c.Stats.Committed != 0 {
		t.Fatal("committed on a single notification")
	}
	// A duplicate from the same server must not count twice.
	c.OnNotif(1, notifFor(prop, 1, serverKeys[1], true))
	if c.Stats.Committed != 0 {
		t.Fatal("duplicate notification counted")
	}
	c.OnNotif(2, notifFor(prop, 2, serverKeys[2], true))
	if c.Stats.Committed != 1 {
		t.Fatalf("committed = %d, want 1 after f+1 notifs", c.Stats.Committed)
	}
	if len(c.Stats.Latencies) != 1 || c.Stats.Latencies[0] != 10*time.Millisecond {
		t.Fatalf("latency = %v", c.Stats.Latencies)
	}
	// Closed loop: the next request went out immediately.
	if len(env.broadcasts) != 2 {
		t.Fatalf("broadcasts = %d, want 2", len(env.broadcasts))
	}
}

func TestClientComplainsOnTimeout(t *testing.T) {
	c, env, _, _ := newTestClient(t)
	c.Start()
	env.advance(1100 * time.Millisecond)
	if c.Stats.Complaints != 1 {
		t.Fatalf("complaints = %d, want 1", c.Stats.Complaints)
	}
	// The complaint carries the original proposal, signed.
	var compt *types.Compt
	for _, m := range env.broadcasts {
		if x, ok := m.(*types.Compt); ok {
			compt = x
		}
	}
	if compt == nil {
		t.Fatal("no complaint broadcast")
	}
	orig := env.broadcasts[0].(*types.Prop)
	if compt.Prop.D != orig.D {
		t.Fatal("complaint references the wrong proposal")
	}
	if len(compt.Sig) == 0 {
		t.Fatal("complaint unsigned")
	}
}

func TestClientRejectsBadNotifSignature(t *testing.T) {
	c, env, _, serverKeys := newTestClient(t)
	c.Start()
	prop := env.broadcasts[0].(*types.Prop)
	n1 := notifFor(prop, 1, serverKeys[1], true)
	n1.Sig = []byte("garbage")
	c.OnNotif(1, n1)
	n2 := notifFor(prop, 2, serverKeys[2], true)
	n2.From = 3 // signature won't match claimed origin
	c.OnNotif(3, n2)
	if c.Stats.Committed != 0 {
		t.Fatal("bad notifications accepted")
	}
}

func TestClientRejectionQuorum(t *testing.T) {
	c, env, _, serverKeys := newTestClient(t)
	c.Start()
	prop := env.broadcasts[0].(*types.Prop)
	c.OnNotif(1, notifFor(prop, 1, serverKeys[1], false))
	c.OnNotif(2, notifFor(prop, 2, serverKeys[2], false))
	if c.Stats.Rejected != 1 || c.Stats.Committed != 0 {
		t.Fatalf("rejected/committed = %d/%d, want 1/0", c.Stats.Rejected, c.Stats.Committed)
	}
}

func TestClientMaxRequestsAndStop(t *testing.T) {
	reg, serverKeys, clientKeys := crypto.GenerateDeployment(55, 4, 1)
	env := &fakeEnv{}
	c := New(Config{
		ID: 1, Keys: clientKeys[1], Registry: reg, N: 4,
		MaxRequests: 2, Timeout: time.Second,
	}, env)
	_ = reg
	c.Start()
	for i := 0; i < 2; i++ {
		prop := env.broadcasts[len(env.broadcasts)-1].(*types.Prop)
		c.OnNotif(1, notifFor(prop, 1, serverKeys[1], true))
		c.OnNotif(2, notifFor(prop, 2, serverKeys[2], true))
	}
	if c.Stats.Committed != 2 {
		t.Fatalf("committed = %d, want 2", c.Stats.Committed)
	}
	if c.Outstanding() {
		t.Fatal("client kept requesting past MaxRequests")
	}
}

func TestClientThinkTime(t *testing.T) {
	reg, serverKeys, clientKeys := crypto.GenerateDeployment(55, 4, 1)
	env := &fakeEnv{}
	c := New(Config{
		ID: 1, Keys: clientKeys[1], Registry: reg, N: 4,
		ThinkTime: 100 * time.Millisecond, Timeout: time.Second,
	}, env)
	c.Start()
	prop := env.broadcasts[0].(*types.Prop)
	c.OnNotif(1, notifFor(prop, 1, serverKeys[1], true))
	c.OnNotif(2, notifFor(prop, 2, serverKeys[2], true))
	if len(env.broadcasts) != 1 {
		t.Fatal("next request sent before think time elapsed")
	}
	env.advance(150 * time.Millisecond)
	if len(env.broadcasts) != 2 {
		t.Fatal("next request not sent after think time")
	}
}

// blockNotifs plays one replica acknowledging block seq: filler transactions
// with the client's proposal at position pos, one signature over the tree's
// root. It returns the client's Notif and, for replay tests, a filler's.
func blockNotifs(prop *types.Prop, from types.ServerID, keys *crypto.KeyPair, status bool, seq types.SeqNum, pos, size int) (own, filler *types.Notif) {
	txds := make([]types.Digest, size)
	leaves := make([]types.Digest, size)
	for i := range leaves {
		txds[i] = types.HashBytes([]byte{byte(i), byte(seq), 'f'})
		if i == pos {
			txds[i] = prop.D
		}
		leaves[i] = types.NotifLeaf(txds[i], status)
	}
	root, paths := types.NotifProofs(leaves)
	sig := keys.Sign(types.NotifStatement(from, 0, 1, seq, root))
	other := (pos + 1) % size
	mk := func(i int) *types.Notif {
		return &types.Notif{From: from, V: 1, N: seq, TxD: txds[i], Status: status,
			Index: uint32(i), Path: paths[i], Sig: sig}
	}
	return mk(pos), mk(other)
}

// TestClientQuorumMixesBatchedAndOneLeaf: the f+1 rule counts servers, not
// Notif shapes — one replica's per-block acknowledgement plus another's
// one-leaf re-notification complete the request.
func TestClientQuorumMixesBatchedAndOneLeaf(t *testing.T) {
	c, env, _, serverKeys := newTestClient(t)
	c.Start()
	prop := env.broadcasts[0].(*types.Prop)
	batched, _ := blockNotifs(prop, 1, serverKeys[1], true, 4, 5, 15)
	c.OnNotif(1, batched)
	if c.Stats.Committed != 0 {
		t.Fatal("committed on one server's notification")
	}
	// The same server again, in the other shape, is still one server.
	c.OnNotif(1, notifFor(prop, 1, serverKeys[1], true))
	if c.Stats.Committed != 0 {
		t.Fatal("two Notifs from one server counted twice")
	}
	c.OnNotif(2, notifFor(prop, 2, serverKeys[2], true))
	if c.Stats.Committed != 1 {
		t.Fatalf("committed = %d, want 1 after a batched and a one-leaf Notif", c.Stats.Committed)
	}
}

// TestClientRejectsTamperedProof: every field the proof binds — path, index,
// status — and the block the signature belongs to.
func TestClientRejectsTamperedProof(t *testing.T) {
	c, env, _, serverKeys := newTestClient(t)
	c.Start()
	prop := env.broadcasts[0].(*types.Prop)
	genuine := func(from types.ServerID) *types.Notif {
		n, _ := blockNotifs(prop, from, serverKeys[from], true, 4, 5, 15)
		return n
	}
	tamper := map[string]func(n *types.Notif){
		"path": func(n *types.Notif) {
			n.Path = append([]types.Digest(nil), n.Path...)
			n.Path[2][0] ^= 1
		},
		"shorter path": func(n *types.Notif) { n.Path = n.Path[:len(n.Path)-1] },
		"index":        func(n *types.Notif) { n.Index ^= 1 },
		"index beyond the tree": func(n *types.Notif) {
			n.Index |= 1 << len(n.Path)
		},
		"status": func(n *types.Notif) { n.Status = false },
		"leader": func(n *types.Notif) { n.Leader = 3 },
		"signature of another block": func(n *types.Notif) {
			other, _ := blockNotifs(prop, n.From, serverKeys[n.From], true, 5, 5, 15)
			n.Sig = other.Sig
		},
		"signature of another server": func(n *types.Notif) {
			n.Sig = genuine(n.From + 1).Sig
		},
	}
	for name, f := range tamper {
		for _, from := range []types.ServerID{1, 2, 3} {
			n := genuine(from)
			f(n)
			c.OnNotif(from, n)
		}
		if c.Stats.Committed != 0 || c.Stats.Rejected != 0 {
			t.Fatalf("tampered %s accepted by the quorum", name)
		}
	}
	// A filler transaction's genuine Notif is not about this request.
	for _, from := range []types.ServerID{1, 2} {
		_, filler := blockNotifs(prop, from, serverKeys[from], true, 4, 5, 15)
		c.OnNotif(from, filler)
	}
	if c.Stats.Committed != 0 {
		t.Fatal("another transaction's Notif accepted")
	}
	c.OnNotif(1, genuine(1))
	c.OnNotif(2, genuine(2))
	if c.Stats.Committed != 1 {
		t.Fatal("genuine batched quorum rejected")
	}
}

// commitAfter lets d pass and then completes the outstanding request with an
// f+1 quorum of accepting Notifs.
func commitAfter(t *testing.T, c *Client, env *fakeEnv, keys map[types.ServerID]*crypto.KeyPair, d time.Duration) {
	t.Helper()
	env.advance(d)
	prop, done := c.outstanding, c.Stats.Committed
	c.OnNotif(1, notifFor(prop, 1, keys[1], true))
	c.OnNotif(2, notifFor(prop, 2, keys[2], true))
	if c.Stats.Committed != done+1 {
		t.Fatalf("request %d did not commit", c.seq)
	}
}

// complainsAfter checks that the client's next complaint fires exactly d
// from now: not a nanosecond earlier.
func complainsAfter(t *testing.T, c *Client, env *fakeEnv, d time.Duration) {
	t.Helper()
	before := c.Stats.Complaints
	env.advance(d - 1)
	if c.Stats.Complaints != before {
		t.Fatalf("complained before %v", d)
	}
	env.advance(1)
	if c.Stats.Complaints != before+1 {
		t.Fatalf("no complaint at %v", d)
	}
}

// TestClientFirstRequestWaitsFullTimeout: with no latency sample yet, the
// client waits the whole Timeout before it complains.
func TestClientFirstRequestWaitsFullTimeout(t *testing.T) {
	c, env, _, _ := newTimeoutClient(t, 2*time.Second)
	c.Start()
	complainsAfter(t, c, env, 2*time.Second)
}

// TestClientComplaintWaitFloor: after fast commits the wait shrinks to its
// floor, two replica retransmission periods (500 ms), and no lower.
func TestClientComplaintWaitFloor(t *testing.T) {
	c, env, _, keys := newTimeoutClient(t, 2*time.Second)
	c.Start()
	for i := 0; i < 20; i++ {
		commitAfter(t, c, env, keys, 5*time.Millisecond)
	}
	if minComplaintWait != 500*time.Millisecond {
		t.Fatalf("floor %v, want 500ms", minComplaintWait)
	}
	complainsAfter(t, c, env, minComplaintWait)
}

// TestClientComplaintWaitCappedAtTimeout: a latency whose srtt + 4·rttvar
// exceeds Timeout still complains at Timeout.
func TestClientComplaintWaitCappedAtTimeout(t *testing.T) {
	c, env, _, keys := newTimeoutClient(t, 2*time.Second)
	c.Start()
	commitAfter(t, c, env, keys, 1900*time.Millisecond)
	if rto := c.srtt + 4*c.rttvar; rto <= 2*time.Second {
		t.Fatalf("srtt + 4·rttvar = %v, want the sample to ask for more than Timeout", rto)
	}
	complainsAfter(t, c, env, 2*time.Second)
}

// TestClientComplainedRequestAddsNoSample: Karn's rule. A request that
// needed complaints commits late without touching srtt/rttvar; its
// backed-off wait carries over to the next requests until one completes
// without a complaint, and that clean sample sets the wait from srtt again.
func TestClientComplainedRequestAddsNoSample(t *testing.T) {
	c, env, _, keys := newTimeoutClient(t, 2*time.Second)
	c.Start()
	for i := 0; i < 20; i++ {
		commitAfter(t, c, env, keys, 5*time.Millisecond)
	}
	srtt, rttvar, samples := c.srtt, c.rttvar, len(c.Stats.Latencies)
	complainsAfter(t, c, env, 500*time.Millisecond)
	commitAfter(t, c, env, keys, 900*time.Millisecond)
	if len(c.Stats.Latencies) != samples+1 {
		t.Fatal("the late request's latency was not recorded")
	}
	if c.srtt != srtt || c.rttvar != rttvar {
		t.Fatalf("srtt/rttvar %v/%v -> %v/%v after a complained request", srtt, rttvar, c.srtt, c.rttvar)
	}
	complainsAfter(t, c, env, time.Second)
	commitAfter(t, c, env, keys, 0)
	commitAfter(t, c, env, keys, 5*time.Millisecond)
	complainsAfter(t, c, env, 500*time.Millisecond)
}

// TestClientLatencyStepCostsOneComplaint: when the commit latency jumps
// from 5 ms to 700 ms, above the 500 ms wait the fast samples set, the first
// slow request complains once; its doubled wait lets the next one commit
// uncomplained, and from that sample on srtt + 4·rttvar covers 700 ms.
func TestClientLatencyStepCostsOneComplaint(t *testing.T) {
	c, env, _, keys := newTimeoutClient(t, 2*time.Second)
	c.Start()
	for i := 0; i < 20; i++ {
		commitAfter(t, c, env, keys, 5*time.Millisecond)
	}
	for i := 0; i < 30; i++ {
		commitAfter(t, c, env, keys, 700*time.Millisecond)
	}
	if c.Stats.Complaints != 1 {
		t.Fatalf("%d complaints over 30 requests at 700 ms, want 1", c.Stats.Complaints)
	}
}

// TestClientComplaintBackoff: each re-complaint doubles the wait, and the
// wait stays at Timeout once it gets there.
func TestClientComplaintBackoff(t *testing.T) {
	c, env, _, keys := newTimeoutClient(t, 2*time.Second)
	c.Start()
	for i := 0; i < 20; i++ {
		commitAfter(t, c, env, keys, 5*time.Millisecond)
	}
	for _, d := range []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 2 * time.Second, 2 * time.Second} {
		complainsAfter(t, c, env, d)
	}
}

// TestMergeLatencies checks the merged set against the reference rule: copy
// every client's samples, sort, read index ⌊p/100·(n−1)⌋, and divide the
// integer sum by the count.
func TestMergeLatencies(t *testing.T) {
	ref := func(stats []Stats, p float64) (pct, mean time.Duration) {
		var ls []time.Duration
		for _, st := range stats {
			ls = append(ls, st.Latencies...)
		}
		if len(ls) == 0 {
			return 0, 0
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		var sum time.Duration
		for _, l := range ls {
			sum += l
		}
		return ls[int(p/100*float64(len(ls)-1))], sum / time.Duration(len(ls))
	}
	var many []time.Duration
	for i := 0; i < 101; i++ {
		many = append(many, time.Duration((i*37)%101)*time.Millisecond+time.Duration(i))
	}
	cases := []struct {
		name  string
		stats []Stats
	}{
		{"no clients", nil},
		{"no samples", []Stats{{}, {}}},
		{"one sample", []Stats{{Latencies: []time.Duration{7 * time.Millisecond}}}},
		{"several clients", []Stats{
			{Latencies: []time.Duration{3, 1, 2}},
			{},
			{Latencies: []time.Duration{5, 4, 4}},
		}},
		{"uneven mean", []Stats{{Latencies: []time.Duration{1, 2}}, {Latencies: []time.Duration{2}}}},
		{"101 samples", []Stats{{Latencies: many[:40]}, {Latencies: many[40:]}}},
	}
	for _, tc := range cases {
		before := make([][]time.Duration, len(tc.stats))
		for i, st := range tc.stats {
			before[i] = append([]time.Duration(nil), st.Latencies...)
		}
		ls := MergeLatencies(tc.stats)
		for _, p := range []float64{0, 50, 95, 99, 100} {
			want, wantMean := ref(tc.stats, p)
			if got := ls.Percentile(p); got != want {
				t.Errorf("%s: p%v = %v, want %v", tc.name, p, got, want)
			}
			if got := ls.Mean(); got != wantMean {
				t.Errorf("%s: mean = %v, want %v", tc.name, got, wantMean)
			}
		}
		for i, st := range tc.stats {
			if !slices.Equal(st.Latencies, before[i]) {
				t.Errorf("%s: client %d's latencies reordered to %v", tc.name, i, st.Latencies)
			}
		}
	}
}
