// Package crypto provides the cryptographic substrate for PrestigeBFT:
// ed25519 signing keys for servers and clients, a registry used to verify
// signatures and quorum certificates, and the reputation-determined
// proof-of-work puzzle of the active view-change protocol (§4.2.2).
//
// The paper uses (t,n) threshold signatures to compress quorum certificates
// to O(1) size. The Go standard library has no pairing-based cryptography,
// so this package aggregates individual ed25519 signatures instead; the
// quorum semantics (threshold t out of n distinct signers over one
// statement) are identical. See DESIGN.md §4.
package crypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"prestigebft/internal/types"
)

// KeyPair holds one ed25519 signing identity.
type KeyPair struct {
	Pub  ed25519.PublicKey
	Priv ed25519.PrivateKey
}

// Sign signs msg with the private key.
func (k *KeyPair) Sign(msg []byte) []byte { return ed25519.Sign(k.Priv, msg) }

// Key-derivation domain separators for the two identity classes of a
// deployment.
const (
	domainServer byte = 0x00
	domainClient byte = 0x01
)

// deterministicKey derives a key pair by hashing the full (seed, domain,
// index) tuple. Deterministic key generation keeps simulations and tests
// reproducible; hashing every input bit guarantees distinct tuples can never
// alias. (An earlier packing, seed<<20|index, silently dropped the seed's top
// 20 bits, so deployments whose seeds differed only there shared keys.)
func deterministicKey(seed uint64, domain byte, index uint64) KeyPair {
	var s [17]byte
	binary.BigEndian.PutUint64(s[0:8], seed)
	s[8] = domain
	binary.BigEndian.PutUint64(s[9:17], index)
	h := sha256.Sum256(s[:])
	priv := ed25519.NewKeyFromSeed(h[:])
	return KeyPair{Pub: priv.Public().(ed25519.PublicKey), Priv: priv}
}

// Registry stores the public identities of all servers and clients in a
// deployment and verifies signatures and quorum certificates against them.
type Registry struct {
	servers map[types.ServerID]ed25519.PublicKey
	clients map[types.ClientID]ed25519.PublicKey

	// VerifySignatures disables real signature verification when false.
	// Large-scale simulation experiments charge signature verification
	// *time* through the simulator's CPU cost model but skip the actual
	// ed25519 math so that a 100-server virtual cluster runs on one
	// laptop core. Protocol tests keep it enabled.
	VerifySignatures bool

	// cache, when non-nil, memoizes successful verifications so the same
	// signature or QC arriving on multiple messages (or pre-verified by the
	// live pipeline) is checked once. Nil in simulation — the simulator
	// never calls EnableVerifiedCache, so simulated results are untouched.
	cache *verifiedCache
}

// cacheKey identifies one verified fact. Keys hash their full input
// (domain tag plus length-prefixed material), so distinct facts cannot alias.
type cacheKey [32]byte

// verifiedCache is a bounded set of verification facts that have already
// succeeded. Only positive results are cached: a hit means "this exact
// (identity, message, signature) or QC verified successfully before".
// Eviction is two-generation (the simplest bounded scheme with an LRU-ish
// working-set guarantee): when the live generation fills, it becomes the
// previous generation and a fresh map starts; lookups consult both.
type verifiedCache struct {
	mu    sync.Mutex
	live  map[cacheKey]struct{}
	prev  map[cacheKey]struct{}
	limit int

	hits   uint64
	misses uint64
}

func (c *verifiedCache) contains(k cacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.live[k]; ok {
		c.hits++
		return true
	}
	if _, ok := c.prev[k]; ok {
		// Promote so the fact survives the next generation flip.
		c.live[k] = struct{}{}
		c.hits++
		return true
	}
	c.misses++
	return false
}

func (c *verifiedCache) insert(k cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.live) >= c.limit {
		c.prev = c.live
		c.live = make(map[cacheKey]struct{}, c.limit)
	}
	c.live[k] = struct{}{}
}

// DefaultVerifiedCacheEntries bounds each cache generation when
// EnableVerifiedCache is called with a non-positive size.
const DefaultVerifiedCacheEntries = 1 << 16

// EnableVerifiedCache installs a bounded verified-fact cache holding up to
// entries facts per generation (DefaultVerifiedCacheEntries if entries <= 0).
// Only live deployments call this; the simulator never does, which is what
// keeps simulated trajectories byte-identical. Safe for concurrent use once
// installed; not safe to call concurrently with verification.
func (r *Registry) EnableVerifiedCache(entries int) {
	if entries <= 0 {
		entries = DefaultVerifiedCacheEntries
	}
	r.cache = &verifiedCache{
		live:  make(map[cacheKey]struct{}, entries),
		limit: entries,
	}
}

// CacheStats returns cumulative (hits, misses) of the verified-fact cache,
// or zeros when no cache is installed.
func (r *Registry) CacheStats() (hits, misses uint64) {
	if r.cache == nil {
		return 0, 0
	}
	r.cache.mu.Lock()
	defer r.cache.mu.Unlock()
	return r.cache.hits, r.cache.misses
}

// Cache-key domain tags. Each key hashes tag || len-prefixed fields, so a
// server-signature fact can never collide with a client-signature or QC fact.
const (
	cacheTagServer byte = 'S'
	cacheTagClient byte = 'C'
	cacheTagQC     byte = 'Q'
)

func sigCacheKey(tag byte, id uint64, msg, sig []byte) cacheKey {
	h := sha256.New()
	var hdr [17]byte
	hdr[0] = tag
	binary.BigEndian.PutUint64(hdr[1:9], id)
	binary.BigEndian.PutUint64(hdr[9:17], uint64(len(msg)))
	h.Write(hdr[:])
	h.Write(msg)
	h.Write(sig)
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// qcCacheKey hashes the full content of a QC: statement, signer set, and
// every signature (each length-prefixed). Any bit of difference — including
// a different signer order or a padded signature — yields a different key.
func qcCacheKey(qc *types.QC) cacheKey {
	stmt := qc.StatementBytes()
	h := sha256.New()
	var hdr [9]byte
	hdr[0] = cacheTagQC
	binary.BigEndian.PutUint64(hdr[1:9], uint64(len(stmt)))
	h.Write(hdr[:])
	h.Write(stmt)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(qc.Signers)))
	h.Write(n[:])
	for i, id := range qc.Signers {
		var rec [10]byte
		binary.BigEndian.PutUint16(rec[0:2], uint16(id))
		binary.BigEndian.PutUint64(rec[2:10], uint64(len(qc.Sigs[i])))
		h.Write(rec[:])
		h.Write(qc.Sigs[i])
	}
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// NewRegistry creates an empty registry with verification enabled.
func NewRegistry() *Registry {
	return &Registry{
		servers:          make(map[types.ServerID]ed25519.PublicKey),
		clients:          make(map[types.ClientID]ed25519.PublicKey),
		VerifySignatures: true,
	}
}

// GenerateDeployment creates deterministic keys for n servers and c clients,
// returning the shared registry and each party's private key pair.
func GenerateDeployment(seed uint64, n, c int) (*Registry, map[types.ServerID]*KeyPair, map[types.ClientID]*KeyPair) {
	reg := NewRegistry()
	servers := make(map[types.ServerID]*KeyPair, n)
	clients := make(map[types.ClientID]*KeyPair, c)
	for i := 1; i <= n; i++ {
		kp := deterministicKey(seed, domainServer, uint64(i))
		id := types.ServerID(i)
		servers[id] = &kp
		reg.servers[id] = kp.Pub
	}
	for i := 1; i <= c; i++ {
		kp := deterministicKey(seed, domainClient, uint64(i))
		id := types.ClientID(i)
		clients[id] = &kp
		reg.clients[id] = kp.Pub
	}
	return reg, servers, clients
}

// NumServers returns the number of registered servers.
func (r *Registry) NumServers() int { return len(r.servers) }

// VerifyServer checks a server signature over msg.
func (r *Registry) VerifyServer(id types.ServerID, msg, sig []byte) bool {
	if !r.VerifySignatures {
		return len(sig) > 0
	}
	pub, ok := r.servers[id]
	if !ok {
		return false
	}
	if r.cache != nil {
		k := sigCacheKey(cacheTagServer, uint64(id), msg, sig)
		if r.cache.contains(k) {
			return true
		}
		if ed25519.Verify(pub, msg, sig) {
			r.cache.insert(k)
			return true
		}
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// VerifyClient checks a client signature over msg.
func (r *Registry) VerifyClient(id types.ClientID, msg, sig []byte) bool {
	if !r.VerifySignatures {
		return len(sig) > 0
	}
	pub, ok := r.clients[id]
	if !ok {
		return false
	}
	if r.cache != nil {
		k := sigCacheKey(cacheTagClient, uint64(id), msg, sig)
		if r.cache.contains(k) {
			return true
		}
		if ed25519.Verify(pub, msg, sig) {
			r.cache.insert(k)
			return true
		}
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// VerifyProp checks a client proposal at intake: D is its transaction's
// digest, and Sig its client's signature over them.
func (r *Registry) VerifyProp(m *types.Prop) bool {
	return m.Tx.Digest() == m.D && r.VerifyClient(m.Tx.Client, m.SigningBytes(), m.Sig)
}

// VerifyRequests checks a proposed batch's client signatures: sigs[i] must
// be txs[i]'s client's signature over its PropStatement. A replica checks
// this before it votes for a proposal, so a leader cannot order a request
// that no client signed.
func (r *Registry) VerifyRequests(txs []types.Transaction, sigs [][]byte) bool {
	if len(sigs) != len(txs) {
		return false
	}
	for i := range txs {
		d := txs[i].Digest()
		if !r.VerifyClient(txs[i].Client, types.PropStatement(&txs[i], d), sigs[i]) {
			return false
		}
	}
	return true
}

// VerifyQC checks that qc certifies its statement with at least threshold
// distinct, registered signers.
//
// Shape checks come before the threshold check: a QC whose signer and
// signature lists disagree, or that carries an empty signature, is malformed
// regardless of how many signers it claims, and must be rejected even in
// sim mode (where VerifySignatures is false and a padding byte would
// otherwise stand in for a signature).
func (r *Registry) VerifyQC(qc *types.QC, threshold int) error {
	if len(qc.Sigs) != len(qc.Signers) {
		return fmt.Errorf("%s: %d signatures for %d signers", qc.Kind, len(qc.Sigs), len(qc.Signers))
	}
	for i, sig := range qc.Sigs {
		if len(sig) == 0 {
			return fmt.Errorf("%s: empty signature from %d", qc.Kind, qc.Signers[i])
		}
	}
	if qc.Len() < threshold {
		return fmt.Errorf("%s: %d signers, need %d", qc.Kind, qc.Len(), threshold)
	}
	// Cached fact: every signature in this exact QC verified against its
	// statement, with all signers distinct and registered. The fact is
	// threshold-independent — the threshold is re-checked above on every
	// call — so one cache entry serves the same QC at any quorum size.
	var key cacheKey
	useCache := r.cache != nil && r.VerifySignatures
	if useCache {
		key = qcCacheKey(qc)
		if r.cache.contains(key) {
			return nil
		}
	}
	stmt := qc.StatementBytes()
	seen := make(map[types.ServerID]bool, len(qc.Signers))
	for i, id := range qc.Signers {
		if seen[id] {
			return fmt.Errorf("%s: duplicate signer %d", qc.Kind, id)
		}
		seen[id] = true
		if !r.VerifyServer(id, stmt, qc.Sigs[i]) {
			return fmt.Errorf("%s: bad signature from %d", qc.Kind, id)
		}
	}
	if useCache {
		r.cache.insert(key)
	}
	return nil
}

// --- Proof-of-work puzzle (§4.2.2) ------------------------------------------

// The paper requires the hash result to have a prefix of rp zero *bytes*
// (Pr = 2^-8rp). The difficulty unit is configurable here as bits-per-rp so
// that live demos finish in human time; the paper's setting is 8.

// PuzzleSeed derives the puzzle seed from the redeemer's latest txBlock hash
// and the view campaigned for, so work cannot be reused across campaigns.
func PuzzleSeed(txBlockHash types.Digest, vPrime types.View) []byte {
	buf := make([]byte, 0, 40)
	buf = append(buf, txBlockHash[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(vPrime))
	return buf
}

// PuzzleHash computes hr = Hash(seed, nonce) (Algo. 2 line 38).
func PuzzleHash(seed, nonce []byte) types.Digest {
	h := sha256.New()
	h.Write(seed)
	h.Write(nonce)
	var out types.Digest
	h.Sum(out[:0])
	return out
}

// LeadingZeroBits counts the zero-bit prefix of d.
func LeadingZeroBits(d types.Digest) int {
	bits := 0
	for _, b := range d {
		if b == 0 {
			bits += 8
			continue
		}
		for mask := byte(0x80); mask != 0; mask >>= 1 {
			if b&mask != 0 {
				return bits
			}
			bits++
		}
	}
	return bits
}

// CheckPrefix reports whether hr satisfies difficulty zeroBits
// (Algo. 2 line 39 / criterion C5). A non-positive difficulty always passes.
func CheckPrefix(hr types.Digest, zeroBits int) bool {
	if zeroBits <= 0 {
		return true
	}
	return LeadingZeroBits(hr) >= zeroBits
}

// SolvePuzzle searches nonces until Hash(seed, nonce) has at least zeroBits
// leading zero bits. It returns the nonce, the hash result, and the number
// of iterations performed. rng drives nonce generation; it may be nil, in
// which case a counter search is used.
func SolvePuzzle(seed []byte, zeroBits int, rng *rand.Rand) (nonce []byte, hr types.Digest, iters uint64) {
	nonce = make([]byte, 8)
	if rng != nil {
		binary.BigEndian.PutUint64(nonce, rng.Uint64())
	}
	for {
		iters++
		hr = PuzzleHash(seed, nonce)
		if CheckPrefix(hr, zeroBits) {
			return nonce, hr, iters
		}
		// Counter increment: deterministic continuation from the random
		// starting point.
		for i := 7; i >= 0; i-- {
			nonce[i]++
			if nonce[i] != 0 {
				break
			}
		}
	}
}

// VerifyPuzzle re-derives hr from (seed, nonce) and checks the difficulty
// prefix. Verification is a single hash (O(1)), matching §4.2.3.
func VerifyPuzzle(seed, nonce []byte, claimed types.Digest, zeroBits int) bool {
	hr := PuzzleHash(seed, nonce)
	return hr == claimed && CheckPrefix(hr, zeroBits)
}

// ExpectedIterations returns the expected number of hash evaluations to find
// a zeroBits-prefix: 2^zeroBits.
func ExpectedIterations(zeroBits int) float64 {
	if zeroBits <= 0 {
		return 1
	}
	f := 1.0
	for i := 0; i < zeroBits; i++ {
		f *= 2
	}
	return f
}
