package zkp

import (
	"crypto/sha256"
	"errors"
	"hash"

	"arboretum/internal/hashing"
)

// Scratch is the pooled tag-computation state behind the streaming-ingest
// prove/verify path (internal/runtime): statementTag builds a fresh HMAC
// object per call, which costs several allocations per device, while a
// Scratch computes the identical HMAC-SHA256 tag from one retained SHA-256
// state and fixed buffers. A Scratch is not safe for concurrent use — each
// shard aggregator (and each upload source) owns its own.
type Scratch struct {
	h   hash.Hash
	pad [sha256.BlockSize]byte
	msg [statementMsgLen]byte
	sum [sha256.Size]byte
}

// NewScratch returns an empty scratch ready for tagging.
func NewScratch() *Scratch {
	return &Scratch{h: sha256.New()}
}

// tag computes HMAC-SHA256(key, encode(s)) — bit-identical to statementTag —
// without allocating.
func (sc *Scratch) tag(key []byte, s Statement) [sha256.Size]byte {
	if len(key) > sha256.BlockSize {
		sc.h.Reset()
		hashing.Write(sc.h, key)
		key = sc.h.Sum(sc.sum[:0])
	}
	for i := range sc.pad {
		var k byte
		if i < len(key) {
			k = key[i]
		}
		sc.pad[i] = k ^ 0x36 // ipad
	}
	putStatement(sc.msg[:], s)
	sc.h.Reset()
	hashing.Write(sc.h, sc.pad[:], sc.msg[:])
	inner := sc.h.Sum(sc.sum[:0])
	for i := range sc.pad {
		sc.pad[i] ^= 0x36 ^ 0x5c // flip ipad to opad without re-reading key
	}
	sc.h.Reset()
	hashing.Write(sc.h, sc.pad[:], inner)
	// Sum into sc.sum, not a local: a local passed through the hash.Hash
	// interface escapes, and this alloc-free path exists to avoid exactly
	// that. inner (which aliases sc.sum) was fully consumed by Write above.
	sc.h.Sum(sc.sum[:0])
	return sc.sum
}

// ProveKeyed proves a statement directly under a signing key, writing the
// proof into caller-owned storage. It is Prove for callers that derive keys
// on demand (virtual-device populations) or recycle proof slots per batch —
// no Prover, no per-call allocation. Like Prove, it fails when the witness
// does not satisfy the claim, leaving *out unchanged.
//
//arblint:ignore deadexport test seam: runtime's virtual-population ingest tests prove per device through it
func ProveKeyed(sc *Scratch, key []byte, s Statement, w Witness, out *Proof) error {
	if !satisfies(s.Claim, w) {
		return errors.New("zkp: witness does not satisfy the claim")
	}
	out.Statement = s
	out.tag = sc.tag(key, s)
	out.valid = true
	return nil
}
