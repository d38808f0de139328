// Package zkp provides the input well-formedness proofs of Section 5.3:
// participants prove that their encrypted upload is a valid one-hot encoding
// (or an integer in a declared range) so that malicious devices cannot skew
// results by submitting malformed inputs.
//
// The paper's prototype uses ZoKrates with the bellman backend and the
// Groth16 scheme, with proofs signed to prevent replay (G16 is malleable).
// Building a pairing-based SNARK is outside the standard library, so this
// package substitutes a commitment-based simulation with the same interface,
// the same replay protection (statements bind the prover identity and query
// sequence number), and the same verification outcomes — honest proofs
// verify, proofs for malformed inputs and replayed proofs fail. The cost
// model charges proof generation and verification at G16-derived rates, so
// planner decisions are unaffected. See DESIGN.md for the substitution
// argument. The simulation is NOT zero-knowledge: the verifier here is a
// simulation harness that already holds the plaintexts it checks.
package zkp

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"

	"arboretum/internal/hashing"
)

// ProofSize is the wire size charged by the cost model: a Groth16 proof is
// three group elements (~192 bytes on BN254) plus a signature.
const ProofSize = 192 + 64

// Statement binds a proof to a device, a query, and a claim about the
// device's upload.
type Statement struct {
	Device  int
	QueryID uint64
	Claim   Claim
}

// Claim is what the proof asserts about the (hidden) witness.
type Claim struct {
	Kind      ClaimKind
	VectorLen int   // for one-hot claims
	Lo, Hi    int64 // for range claims
}

// ClaimKind enumerates the supported input shapes.
type ClaimKind int

const (
	// ClaimOneHot asserts the upload is a 0/1 vector with exactly one 1.
	ClaimOneHot ClaimKind = iota
	// ClaimRange asserts the upload is an integer in [Lo, Hi].
	ClaimRange
)

// Witness is the device's private input.
type Witness struct {
	Vector []int64 // one-hot claims
	Value  int64   // range claims
}

// Proof is the simulated proof object. Verification succeeds only when the
// statement's claim actually held for the witness at proving time.
type Proof struct {
	Statement Statement
	tag       [sha256.Size]byte
	valid     bool
}

// Bytes returns the wire size for traffic accounting.
func (p *Proof) Bytes() int { return ProofSize }

// Prover generates proofs; it is keyed so that proofs bind the prover
// identity (the signed-proof anti-replay measure of Section 6).
type Prover struct {
	key []byte
}

// NewProver returns a prover with the given signing key.
func NewProver(key []byte) *Prover { return &Prover{key: append([]byte(nil), key...)} }

// satisfies checks the claim against the witness.
func satisfies(c Claim, w Witness) bool {
	switch c.Kind {
	case ClaimOneHot:
		if len(w.Vector) != c.VectorLen {
			return false
		}
		ones := 0
		for _, v := range w.Vector {
			switch v {
			case 0:
			case 1:
				ones++
			default:
				return false
			}
		}
		return ones == 1
	case ClaimRange:
		return w.Value >= c.Lo && w.Value <= c.Hi
	default:
		return false
	}
}

// statementMsgLen is the statement encoding's fixed length: six uint64
// fields, little-endian.
const statementMsgLen = 48

// putStatement writes the canonical statement encoding into buf (at least
// statementMsgLen bytes). statementTag and Scratch.tag MAC the same bytes,
// so proofs from either prover path verify under either verifier path.
func putStatement(buf []byte, s Statement) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(s.Device))
	binary.LittleEndian.PutUint64(buf[8:], s.QueryID)
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.Claim.Kind))
	binary.LittleEndian.PutUint64(buf[24:], uint64(s.Claim.VectorLen))
	binary.LittleEndian.PutUint64(buf[32:], uint64(s.Claim.Lo))
	binary.LittleEndian.PutUint64(buf[40:], uint64(s.Claim.Hi))
}

func statementTag(key []byte, s Statement) [sha256.Size]byte {
	mac := hmac.New(sha256.New, key)
	var msg [statementMsgLen]byte
	putStatement(msg[:], s)
	hashing.Write(mac, msg[:])
	var out [sha256.Size]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// Prove produces a proof for the statement. Like a real prover run on a
// false statement, it returns an error if the witness does not satisfy the
// claim — a malicious device that wants to upload malformed data must skip
// the proof (and be rejected by the verifier).
func (p *Prover) Prove(s Statement, w Witness) (*Proof, error) {
	if !satisfies(s.Claim, w) {
		return nil, errors.New("zkp: witness does not satisfy the claim")
	}
	return &Proof{Statement: s, tag: statementTag(p.key, s), valid: true}, nil
}

// Forge returns a proof object for a statement whose claim does NOT hold;
// tests and the failure-injection runtime use it to model malicious devices.
// It always fails verification.
func Forge(s Statement) *Proof {
	return &Proof{Statement: s, valid: false}
}

// Verifier checks proofs and enforces replay protection per query. It comes
// in two constructions: NewVerifier holds an explicit device-key map (and a
// map-backed replay set), while NewVerifierFunc resolves keys on demand over
// a contiguous device range with a dense replay bitset — O(range/8) bytes of
// state, which is what lets streaming-ingest shards verify virtual
// populations of 10^8 devices without materializing a key table.
type Verifier struct {
	proverKeys map[int][]byte
	seen       map[uint64]map[int]bool // queryID → device → used

	keyOf    KeyFunc
	lo, hi   int                 // accepted device range [lo, hi) (keyOf mode)
	seenBits map[uint64][]uint64 // queryID → replay bitset over [lo, hi)
}

// KeyFunc resolves a device's signing key on demand. The returned slice is
// only read before the next call, so implementations may reuse one buffer.
// Returning nil rejects the device.
type KeyFunc func(device int) []byte

// NewVerifier returns a verifier that accepts proofs from the given device
// keys (device index → signing key).
func NewVerifier(proverKeys map[int][]byte) *Verifier {
	keys := make(map[int][]byte, len(proverKeys))
	for d, k := range proverKeys {
		keys[d] = append([]byte(nil), k...)
	}
	return &Verifier{proverKeys: keys, seen: map[uint64]map[int]bool{}}
}

// NewVerifierFunc returns a verifier that accepts proofs from devices in
// [lo, hi), resolving each signing key through keyOf at verification time.
//
//arblint:ignore deadexport test seam: runtime's virtual-population ingest tests verify 10^6 devices without a key map
func NewVerifierFunc(keyOf KeyFunc, lo, hi int) *Verifier {
	return &Verifier{keyOf: keyOf, lo: lo, hi: hi, seenBits: map[uint64][]uint64{}}
}

// key resolves the device's signing key, or nil to reject.
func (v *Verifier) key(device int) []byte {
	if v.keyOf != nil {
		if device < v.lo || device >= v.hi {
			return nil
		}
		return v.keyOf(device)
	}
	return v.proverKeys[device]
}

// markSeen records the (query, device) pair, reporting whether it was fresh.
func (v *Verifier) markSeen(queryID uint64, device int) bool {
	if v.keyOf != nil {
		bits := v.seenBits[queryID]
		if bits == nil {
			bits = make([]uint64, (v.hi-v.lo+63)/64)
			v.seenBits[queryID] = bits
		}
		i := device - v.lo
		w, b := i/64, uint64(1)<<(i%64)
		if bits[w]&b != 0 {
			return false
		}
		bits[w] |= b
		return true
	}
	q := v.seen[queryID]
	if q == nil {
		q = map[int]bool{}
		v.seen[queryID] = q
	}
	if q[device] {
		return false
	}
	q[device] = true
	return true
}

// verify is the shared check; a nil scratch takes the allocating tag path.
func (v *Verifier) verify(p *Proof, sc *Scratch) bool {
	if p == nil || !p.valid {
		return false
	}
	key := v.key(p.Statement.Device)
	if key == nil {
		return false
	}
	var want [sha256.Size]byte
	if sc != nil {
		want = sc.tag(key, p.Statement)
	} else {
		want = statementTag(key, p.Statement)
	}
	if !hmac.Equal(want[:], p.tag[:]) {
		return false
	}
	return v.markSeen(p.Statement.QueryID, p.Statement.Device)
}

// Verify checks the proof. It fails for forged proofs, unknown devices,
// tag mismatches (wrong key or tampered statement), and replays of a proof
// from the same device in the same query.
func (v *Verifier) Verify(p *Proof) bool { return v.verify(p, nil) }

// VerifyScratch is Verify on the pooled tag path: identical outcomes and
// replay state, zero allocations past the per-query replay set. Callers own
// the scratch's synchronization along with the verifier's.
func (v *Verifier) VerifyScratch(sc *Scratch, p *Proof) bool { return v.verify(p, sc) }
