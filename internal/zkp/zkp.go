// Package zkp provides the input well-formedness proofs of Section 5.3:
// participants prove that their encrypted upload is a valid one-hot encoding
// so that malicious devices cannot skew results by submitting malformed
// inputs.
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
//
// There is one path each way. A proof's tag is an HMAC-SHA256 over the
// statement, computed on a caller-owned Scratch (ProveKeyed; Prove wraps
// it), and a Verifier checks it over a device range with on-demand keys and
// a per-query replay bitset. The deployment runtime's ingest shards and its
// virtual-population test harness both run exactly this path.
package zkp

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"math"
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
	VectorLen int
}

// ClaimKind names the input shape a claim asserts. The runtime uploads
// one-hot rows only (Section 5.3); any other kind fails to prove.
type ClaimKind int

// ClaimOneHot asserts the upload is a 0/1 vector with exactly one 1.
const ClaimOneHot ClaimKind = 0

// Witness is the device's private input.
type Witness struct {
	Vector []int64
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
// identity (the signed-proof anti-replay measure of Section 6). It tags on a
// Scratch of its own, so it is not safe for concurrent use.
type Prover struct {
	key []byte
	sc  *Scratch
}

// NewProver returns a prover with the given signing key.
func NewProver(key []byte) *Prover {
	return &Prover{key: append([]byte(nil), key...), sc: NewScratch()}
}

// satisfies checks the claim against the witness.
func satisfies(c Claim, w Witness) bool {
	if c.Kind != ClaimOneHot || len(w.Vector) != c.VectorLen {
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
}

// statementMsgLen is the statement encoding's fixed length: four uint64
// fields, little-endian.
const statementMsgLen = 32

// putStatement writes the canonical statement encoding into buf (at least
// statementMsgLen bytes): the message Scratch.tag MACs.
func putStatement(buf []byte, s Statement) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(s.Device))
	binary.LittleEndian.PutUint64(buf[8:], s.QueryID)
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.Claim.Kind))
	binary.LittleEndian.PutUint64(buf[24:], uint64(s.Claim.VectorLen))
}

// Prove produces a proof for the statement. Like a real prover run on a
// false statement, it returns an error if the witness does not satisfy the
// claim — a malicious device that wants to upload malformed data must skip
// the proof (and be rejected by the verifier).
func (p *Prover) Prove(s Statement, w Witness) (*Proof, error) {
	out := new(Proof)
	if err := ProveKeyed(p.sc, p.key, s, w, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Forge returns a proof object for a statement whose claim does NOT hold;
// tests and the failure-injection runtime use it to model malicious devices.
// It always fails verification.
func Forge(s Statement) *Proof {
	return &Proof{Statement: s, valid: false}
}

// Verifier checks proofs and enforces replay protection per query. It
// accepts devices in a contiguous range [lo, hi), resolves each signing key
// on demand through a KeyFunc, and keeps one dense replay bitset per query:
// O(range/8) bytes of state and no key table, which is what lets an ingest
// shard verify its slice of a 10^8-device population. It tags on a Scratch
// of its own, so like the shard aggregator that owns it, a Verifier is not
// safe for concurrent use.
type Verifier struct {
	keyOf  KeyFunc
	lo, hi int                 // accepted device range [lo, hi)
	seen   map[uint64][]uint64 // queryID → replay bitset over [lo, hi)
	sc     *Scratch
}

// KeyFunc resolves a device's signing key on demand. The returned slice is
// only read before the next call, so implementations may reuse one buffer.
// Returning nil rejects the device.
type KeyFunc func(device int) []byte

// NewVerifier returns a verifier that accepts proofs from the given device
// keys (device index → signing key): NewVerifierFunc over a copy of the map,
// ranged from its smallest to its largest device index.
func NewVerifier(proverKeys map[int][]byte) *Verifier {
	keys := make(map[int][]byte, len(proverKeys))
	lo, hi := math.MaxInt, math.MinInt
	for d, k := range proverKeys {
		keys[d] = append([]byte(nil), k...)
		lo, hi = min(lo, d), max(hi, d)
	}
	if len(keys) == 0 {
		lo, hi = 0, -1
	}
	return NewVerifierFunc(func(d int) []byte { return keys[d] }, lo, hi+1)
}

// NewVerifierFunc returns a verifier that accepts proofs from devices in
// [lo, hi), resolving each signing key through keyOf at verification time.
func NewVerifierFunc(keyOf KeyFunc, lo, hi int) *Verifier {
	return &Verifier{keyOf: keyOf, lo: lo, hi: hi, seen: map[uint64][]uint64{}, sc: NewScratch()}
}

// markSeen records the (query, device) pair, reporting whether it was fresh.
// The query's bitset is allocated on its first proof.
func (v *Verifier) markSeen(queryID uint64, device int) bool {
	bits := v.seen[queryID]
	if bits == nil {
		bits = make([]uint64, (v.hi-v.lo+63)/64)
		v.seen[queryID] = bits
	}
	i := device - v.lo
	w, b := i/64, uint64(1)<<(i%64)
	if bits[w]&b != 0 {
		return false
	}
	bits[w] |= b
	return true
}

// Verify checks the proof. It fails for forged proofs, devices outside the
// range or without a key, tag mismatches (wrong key or tampered statement),
// and replays of a proof from the same device in the same query. Past each
// query's first proof, which allocates its replay bitset, it allocates
// nothing.
func (v *Verifier) Verify(p *Proof) bool {
	if p == nil || !p.valid {
		return false
	}
	dev := p.Statement.Device
	if dev < v.lo || dev >= v.hi {
		return false
	}
	key := v.keyOf(dev)
	if key == nil {
		return false
	}
	want := v.sc.tag(key, p.Statement)
	if subtle.ConstantTimeCompare(want[:], p.tag[:]) != 1 {
		return false
	}
	return v.markSeen(p.Statement.QueryID, dev)
}
