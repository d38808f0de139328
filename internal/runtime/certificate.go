package runtime

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"arboretum/internal/hashing"
	"arboretum/internal/merkle"
	"arboretum/internal/plan"
	"arboretum/internal/sortition"
)

// AuthCertificate is the query authorization certificate of Section 5.2:
// after checking the privacy budget, the key-generation committee jointly
// signs a record containing the public key, the query sequence number, the
// query plan, the remaining budget balance for the next round's committee, a
// fresh Merkle tree of the registered devices, and the next random block.
// The aggregator publishes it; devices verify the committee signatures
// before encrypting their data under the key.
//
// Including the device registry root prevents the "computational grinding"
// attack the paper describes: a Byzantine aggregator that already knows
// B_{i+1} cannot register lots of fresh keypairs to bias the next
// committees, because the signed M_i pins the registry before B_{i+1} was
// revealed.
type AuthCertificate struct {
	QueryID      uint64
	PublicKeyFP  [sha256.Size]byte // fingerprint of the AHE/FHE public key
	PlanDigest   [sha256.Size]byte // hash of the query plan
	BudgetLeft   float64           // remaining ε for the next committee
	RegistryRoot merkle.Hash       // M_i: the registered devices
	NextBlock    [sha256.Size]byte // B_{i+1}, jointly generated
	// Signatures holds one member signature per key-committee member (the
	// simulation's stand-in for a joint threshold signature).
	Signatures [][]byte
	committee  sortition.Committee
}

// certBody serializes the signed portion.
func (c *AuthCertificate) certBody() []byte {
	buf := make([]byte, 0, 8+3*sha256.Size+8+merkle.HashSize)
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], c.QueryID)
	buf = append(buf, u[:]...)
	buf = append(buf, c.PublicKeyFP[:]...)
	buf = append(buf, c.PlanDigest[:]...)
	binary.LittleEndian.PutUint64(u[:], uint64(c.BudgetLeft*1e6))
	buf = append(buf, u[:]...)
	buf = append(buf, c.RegistryRoot[:]...)
	buf = append(buf, c.NextBlock[:]...)
	return buf
}

func signCert(key []byte, body []byte) []byte {
	mac := hmac.New(sha256.New, key)
	hashing.Write(mac, []byte("arboretum-query-cert"), body)
	return mac.Sum(nil)
}

// issueCertificate has the key committee sign the certificate after the
// budget check.
func (d *Deployment) issueCertificate(km *keyMaterial, planDigest [sha256.Size]byte) (*AuthCertificate, error) {
	epsLeft, _ := d.Budget.Remaining()
	cert := &AuthCertificate{
		QueryID:      d.queryID,
		PlanDigest:   planDigest,
		BudgetLeft:   epsLeft,
		RegistryRoot: d.registry.Root(),
		committee:    km.holder,
	}
	copy(cert.NextBlock[:], d.block)
	h := sha256.Sum256(km.pub.N.Bytes())
	cert.PublicKeyFP = h
	body := cert.certBody()
	for _, member := range km.holder {
		if member < 0 || member >= len(d.Devices) {
			return nil, fmt.Errorf("runtime: certificate signer %d out of range", member)
		}
		cert.Signatures = append(cert.Signatures, signCert(d.Devices[member].Key, body))
	}
	return cert, nil
}

// VerifyCertificate checks a published certificate the way a device does:
// every committee member's signature must verify against the member's key,
// and a majority of the committee must have signed. It returns an error
// describing the first problem found.
func (d *Deployment) VerifyCertificate(cert *AuthCertificate) error {
	if cert == nil {
		return fmt.Errorf("runtime: nil certificate")
	}
	if len(cert.Signatures) != len(cert.committee) {
		return fmt.Errorf("runtime: certificate has %d signatures for %d members",
			len(cert.Signatures), len(cert.committee))
	}
	if cert.RegistryRoot != d.registry.Root() {
		return fmt.Errorf("runtime: certificate registry root does not match (grinding attempt?)")
	}
	body := cert.certBody()
	good := 0
	for i, member := range cert.committee {
		want := signCert(d.Devices[member].Key, body)
		if hmac.Equal(want, cert.Signatures[i]) {
			good++
		}
	}
	if good*2 <= len(cert.committee) {
		return fmt.Errorf("runtime: only %d of %d certificate signatures verify", good, len(cert.committee))
	}
	return nil
}

// planDigest is the certificate's plan commitment: the query text and the
// typed choices the run executes under (everything RunPlan reads from the
// plan), so the signed record says which instantiation of the query the
// committees execute (Section 5.2), not just which query. What a plan only
// prices — its scale, vignette wording, costs — is not in it: two plans that
// run identically sign the same digest.
func planDigest(src string, p *plan.Plan) [sha256.Size]byte {
	return sha256.Sum256(fmt.Appendf(nil, "%s\x00em=%d sum-fanout=%d", src, p.EMVariant, p.SumFanout))
}
