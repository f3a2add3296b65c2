package types

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"
)

// proofBlock builds the (TxD, Status) pairs of an n-transaction block —
// distinct digests, alternating status — and their leaves.
func proofBlock(n int) (txds []Digest, statuses []bool, leaves []Digest) {
	for i := 0; i < n; i++ {
		txds = append(txds, HashBytes([]byte{byte(i), byte(i >> 8), 'x'}))
		statuses = append(statuses, i%2 == 0)
		leaves = append(leaves, NotifLeaf(txds[i], statuses[i]))
	}
	return txds, statuses, leaves
}

func TestNotifProofsVerify(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 100, 128, 129} {
		txds, statuses, leaves := proofBlock(n)
		root, paths := NotifProofs(leaves)
		depth := bits.Len(uint(n - 1))
		if len(paths) != n {
			t.Fatalf("n=%d: %d paths", n, len(paths))
		}
		for i := range leaves {
			if len(paths[i]) != depth {
				t.Fatalf("n=%d leaf %d: depth %d, want every leaf at %d", n, i, len(paths[i]), depth)
			}
			got, ok := NotifRoot(NotifLeaf(txds[i], statuses[i]), uint32(i), paths[i])
			if !ok || got != root {
				t.Fatalf("n=%d leaf %d: genuine proof rejected", n, i)
			}
		}
	}
	if root, paths := NotifProofs(nil); !root.IsZero() || paths != nil {
		t.Fatal("an empty block has no tree")
	}
}

func TestNotifOneLeafTree(t *testing.T) {
	leaf := NotifLeaf(Digest{7}, true)
	root, paths := NotifProofs([]Digest{leaf})
	if root != leaf || len(paths[0]) != 0 {
		t.Fatalf("one-leaf tree: root %v leaf %v path %d", root, leaf, len(paths[0]))
	}
	alone := &Notif{From: 1, V: 2, N: 3, TxD: Digest{7}, Status: true}
	if !bytes.Equal(alone.SigningBytes(), NotifStatement(1, 0, 2, 3, leaf)) {
		t.Fatal("a Notif without a path must sign the leaf as the root")
	}
	// The same transaction inside a two-leaf block signs a different root.
	_, paths = NotifProofs([]Digest{leaf, NotifLeaf(Digest{8}, true)})
	batched := &Notif{From: 1, V: 2, N: 3, TxD: Digest{7}, Status: true, Path: paths[0]}
	if bytes.Equal(alone.SigningBytes(), batched.SigningBytes()) {
		t.Fatal("one-leaf and batched statements coincide")
	}
	// The leader hint is part of the statement: a relay cannot re-point it.
	hinted := *alone
	hinted.Leader = 2
	if bytes.Equal(alone.SigningBytes(), hinted.SigningBytes()) {
		t.Fatal("the leader hint is not signed")
	}
}

func TestNotifRootRejects(t *testing.T) {
	const n, k = 11, 6
	txds, statuses, leaves := proofBlock(n)
	root, paths := NotifProofs(leaves)
	leaf := NotifLeaf(txds[k], statuses[k])
	tampered := append([]Digest(nil), paths[k]...)
	tampered[1][0] ^= 1

	for _, tc := range []struct {
		name  string
		leaf  Digest
		index uint32
		path  []Digest
		// malformed proofs are refused outright; well-formed wrong ones
		// fold to some other root.
		malformed bool
	}{
		{"flipped status", NotifLeaf(txds[k], !statuses[k]), k, paths[k], false},
		{"another transaction", NotifLeaf(txds[k+1], statuses[k]), k, paths[k], false},
		{"another index", leaf, k + 1, paths[k], false},
		{"another leaf's path", leaf, k, paths[k-1], false},
		{"tampered path", leaf, k, tampered, false},
		{"truncated path", leaf, k >> 1, paths[k][1:], false},
		{"index beyond the tree", leaf, k | 1<<len(paths[k]), paths[k], true},
		{"index on an empty path", leaf, 1, nil, true},
		{"path over the cap", leaf, k, make([]Digest, MaxNotifPathLen+1), true},
	} {
		got, ok := NotifRoot(tc.leaf, tc.index, tc.path)
		if ok == tc.malformed {
			t.Errorf("%s: ok=%v, want %v", tc.name, ok, !tc.malformed)
		}
		if ok && got == root {
			t.Errorf("%s: verified against the block's root", tc.name)
		}
		m := &Notif{Index: tc.index, Path: tc.path}
		if sb := m.SigningBytes(); (sb == nil) != tc.malformed {
			t.Errorf("%s: SigningBytes nil=%v, want %v", tc.name, sb == nil, tc.malformed)
		}
	}
	// The cap itself is a legal depth.
	if _, ok := NotifRoot(leaf, 1<<31, make([]Digest, MaxNotifPathLen)); !ok {
		t.Error("a path of exactly MaxNotifPathLen rejected")
	}
}

// FuzzNotifProof: whatever index, path and leaf arrive, verification never
// panics, and it reaches a block's root only for the exact (transaction,
// status, index, path) the proof was built for.
func FuzzNotifProof(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint32(0), []byte{}, []byte{}, true)
	f.Add(uint8(15), uint8(3), uint32(3), make([]byte, 4*32), []byte{3, 0, 'x'}, false)
	f.Add(uint8(100), uint8(99), uint32(1<<31), make([]byte, 33*32), []byte("tx"), true)
	f.Fuzz(func(t *testing.T, n, k uint8, index uint32, rawPath, rawTx []byte, status bool) {
		size := int(n)%128 + 1
		txds, statuses, leaves := proofBlock(size)
		root, paths := NotifProofs(leaves)
		built := int(k) % size
		if got, ok := NotifRoot(leaves[built], uint32(built), paths[built]); !ok || got != root {
			t.Fatalf("genuine proof %d/%d rejected", built, size)
		}

		// The fuzzed transaction is either one of the block's (so that the
		// interesting near-misses are reachable) or arbitrary bytes.
		var txd Digest
		copy(txd[:], rawTx)
		if len(rawTx) > 0 && int(rawTx[0]) < size {
			txd = txds[rawTx[0]]
		}
		var path []Digest
		for ; len(rawPath) >= 32; rawPath = rawPath[32:] {
			path = append(path, Digest(rawPath[:32]))
		}
		genuine := func(p []Digest) bool {
			i := int(index)
			return i < size && txd == txds[i] && status == statuses[i] && slices.Equal(p, paths[i])
		}
		leaf := NotifLeaf(txd, status)
		for _, p := range [][]Digest{path, paths[built]} {
			got, ok := NotifRoot(leaf, index, p)
			if ok && got == root && !genuine(p) {
				t.Fatalf("proof verified for a leaf it was not built for: index %d path %d", index, len(p))
			}
			m := &Notif{From: 1, V: 1, N: 1, TxD: txd, Status: status, Index: index, Path: p}
			if sb := m.SigningBytes(); (sb != nil) != ok {
				t.Fatalf("SigningBytes nil=%v but proof ok=%v", sb == nil, ok)
			}
		}
	})
}
