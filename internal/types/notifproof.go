package types

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
)

// A replica acknowledges a committed block to its clients with one
// signature: it builds a Merkle tree over the block's (TxD, Status) leaves,
// signs the root once, and hands every client that signature plus the
// sibling path of its own leaf (DESIGN.md §15).
//
// Tree shape: leaf i of an n-transaction block sits at depth
// d = ⌈log₂ n⌉ — every leaf at the same depth — and a level with an odd
// node count pairs its last node with the zero digest. Leaf and inner hashes
// carry distinct prefix bytes, so an inner node can never be presented as a
// leaf (or the reverse), and the zero padding digest is no leaf's hash. A
// one-transaction tree has an empty path and its root is the leaf.

// MaxNotifPathLen caps a proof's sibling path. 2^32 transactions per block is
// far beyond any batch size; the cap is what lets a decoder bound the
// allocation a hostile path count can ask for.
const MaxNotifPathLen = 32

const (
	notifLeafTag  byte = 0x00
	notifInnerTag byte = 0x01
)

// NotifLeaf hashes one transaction's consensus result into its tree leaf.
func NotifLeaf(txD Digest, status bool) Digest {
	var buf [1 + 32 + 1]byte
	buf[0] = notifLeafTag
	copy(buf[1:], txD[:])
	if status {
		buf[33] = 1
	}
	return sha256.Sum256(buf[:])
}

func notifInner(left, right Digest) Digest {
	var buf [1 + 32 + 32]byte
	buf[0] = notifInnerTag
	copy(buf[1:], left[:])
	copy(buf[33:], right[:])
	return sha256.Sum256(buf[:])
}

// NotifProofs builds the tree over leaves and returns its root together with
// every leaf's sibling path (bottom-up), paths[i] proving leaves[i] at index
// i. The paths share one backing array. No leaves, no tree: the zero root.
func NotifProofs(leaves []Digest) (root Digest, paths [][]Digest) {
	n := len(leaves)
	if n == 0 {
		return Digest{}, nil
	}
	depth := bits.Len(uint(n - 1))
	paths = make([][]Digest, n)
	backing := make([]Digest, n*depth)
	for i := range paths {
		paths[i] = backing[i*depth : (i+1)*depth : (i+1)*depth]
	}
	level := leaves
	for l := 0; l < depth; l++ {
		for i := range paths {
			if sib := (i >> l) ^ 1; sib < len(level) {
				paths[i][l] = level[sib]
			}
		}
		next := make([]Digest, (len(level)+1)/2)
		for j := range next {
			var right Digest
			if 2*j+1 < len(level) {
				right = level[2*j+1]
			}
			next[j] = notifInner(level[2*j], right)
		}
		level = next
	}
	return level[0], paths
}

// NotifRoot folds leaf up its sibling path and returns the root the proof
// commits to. ok is false for a malformed proof: a path longer than
// MaxNotifPathLen, or an index that does not address a leaf of a tree that
// deep (index ≥ 2^len(path)) — without the second check the unused high
// bits of index would give one leaf many accepted proofs.
func NotifRoot(leaf Digest, index uint32, path []Digest) (root Digest, ok bool) {
	if len(path) > MaxNotifPathLen || uint64(index)>>len(path) != 0 {
		return Digest{}, false
	}
	root = leaf
	for l, sib := range path {
		if index>>l&1 == 0 {
			root = notifInner(root, sib)
		} else {
			root = notifInner(sib, root)
		}
	}
	return root, true
}

// NotifStatement is the byte string a replica signs to acknowledge every
// transaction under root: "notif" ‖ From ‖ Leader ‖ V ‖ N ‖ root. The tag
// keeps it apart from every other signed statement (the QC statements are
// one kind byte plus the same sender, view and seq fields).
func NotifStatement(from, leader ServerID, v View, n SeqNum, root Digest) []byte {
	buf := make([]byte, 0, 5+2+2+8+8+32)
	buf = append(buf, "notif"...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(from))
	buf = binary.BigEndian.AppendUint16(buf, uint16(leader))
	buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	return append(buf, root[:]...)
}

// BlockNotifs builds the Notifs a replica sends for the committed block seq
// whose transactions have digests[i] and status[i], under one signature:
// the (digest, status) pairs become the tree's leaves, sign signs the
// root's NotifStatement once, and notifs[i] carries that signature and leaf
// i's path. A Notif about one transaction alone is the one-leaf block.
func BlockNotifs(from, leader ServerID, v View, seq SeqNum, digests []Digest, status []bool, sign func([]byte) []byte) []Notif {
	leaves := make([]Digest, len(digests))
	for i, d := range digests {
		leaves[i] = NotifLeaf(d, status[i])
	}
	root, paths := NotifProofs(leaves)
	sig := sign(NotifStatement(from, leader, v, seq, root))
	notifs := make([]Notif, len(digests))
	for i, d := range digests {
		notifs[i] = Notif{From: from, Leader: leader, V: v, N: seq, TxD: d, Status: status[i],
			Index: uint32(i), Path: paths[i], Sig: sig}
	}
	return notifs
}
