// Package merkle implements the Merkle hash trees Arboretum uses for the
// device registry (Section 5.1) and for auditing the aggregator's
// intermediate results (Section 5.3): the aggregator commits to the result of
// every step in a tree, and each participant device challenges a few random
// leaves and verifies inclusion proofs, so that an incorrect step is caught
// with probability at least 1 − pMax.
package merkle

import (
	"crypto/sha256"
	"errors"

	"arboretum/internal/hashing"
)

// HashSize is the size of a node hash in bytes.
const HashSize = sha256.Size

// Hash is a node digest.
type Hash [HashSize]byte

// Domain-separation prefixes prevent leaf/interior second-preimage attacks.
const (
	leafPrefix     = 0x00
	interiorPrefix = 0x01
)

// Tree is an immutable Merkle tree over a fixed set of leaves.
type Tree struct {
	leaves []Hash
	levels [][]Hash // levels[0] = leaf hashes, last level has length 1
}

// LeafHash computes the domain-separated hash of a leaf payload.
func LeafHash(data []byte) Hash {
	h := sha256.New()
	hashing.Write(h, []byte{leafPrefix}, data)
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

func interiorHash(l, r Hash) Hash {
	h := sha256.New()
	hashing.Write(h, []byte{interiorPrefix}, l[:], r[:])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// New builds a tree over the given leaf payloads. It returns an error for an
// empty leaf set. An odd node at any level is paired with itself, the
// standard padding used by certificate-transparency-style trees.
func New(leaves [][]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, errors.New("merkle: empty leaf set")
	}
	level := make([]Hash, len(leaves))
	for i, l := range leaves {
		level[i] = LeafHash(l)
	}
	t := &Tree{leaves: level, levels: [][]Hash{level}}
	for len(level) > 1 {
		next := make([]Hash, (len(level)+1)/2)
		for i := range next {
			l := level[2*i]
			r := l
			if 2*i+1 < len(level) {
				r = level[2*i+1]
			}
			next[i] = interiorHash(l, r)
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// Root returns the tree root.
func (t *Tree) Root() Hash { return t.levels[len(t.levels)-1][0] }

// Proof is an inclusion proof for one leaf.
type Proof struct {
	Index    int    // leaf position
	Siblings []Hash // bottom-up sibling hashes
}

// Prove returns the inclusion proof for leaf i.
func (t *Tree) Prove(i int) (*Proof, error) {
	if i < 0 || i >= len(t.leaves) {
		return nil, errors.New("merkle: leaf index out of range")
	}
	p := &Proof{Index: i}
	idx := i
	for _, level := range t.levels[:len(t.levels)-1] {
		sib := idx ^ 1
		if sib >= len(level) {
			sib = idx // odd node paired with itself
		}
		p.Siblings = append(p.Siblings, level[sib])
		idx >>= 1
	}
	return p, nil
}

// Verify checks that the payload is the leaf at p.Index under root.
func Verify(root Hash, payload []byte, p *Proof) bool {
	if p == nil || p.Index < 0 {
		return false
	}
	h := LeafHash(payload)
	idx := p.Index
	for _, sib := range p.Siblings {
		if idx&1 == 0 {
			h = interiorHash(h, sib)
		} else {
			h = interiorHash(sib, h)
		}
		idx >>= 1
	}
	return h == root
}
