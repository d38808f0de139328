// Package sortition implements Arboretum's committee selection (Section 5.1),
// generalized from Honeycrisp: every registered device deterministically
// signs the current random block, hashes the signature, and the c·m devices
// with the lowest hashes form the committees — the device with the x-th
// lowest hash joins committee ⌊x/m⌋, so each device serves on at most one
// committee. The package also provides the minimum-committee-size solver the
// planner calls before scoring a candidate plan.
package sortition

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"arboretum/internal/hashing"
)

// Ticket is a device's sortition entry: the hash of its deterministic
// signature over (block, queryID, 0). A deployment uses deterministic RSA;
// the simulation uses an HMAC keyed by the device's secret, which has the
// same unforgeability-and-determinism contract (see DESIGN.md).
type Ticket struct {
	Device int
	Hash   [sha256.Size]byte
}

// MakeTicket computes the device's ticket for a query round.
func MakeTicket(deviceKey []byte, device int, block []byte, queryID uint64) Ticket {
	mac := hmac.New(sha256.New, deviceKey)
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], queryID)
	// Trailing 0 matches the (B_i, i, 0) message of Section 5.1.
	hashing.Write(mac, block, buf[:])
	var t Ticket
	copy(t.Hash[:], mac.Sum(nil))
	t.Device = device
	return t
}

// Committee is an ordered list of device indices.
type Committee []int

// Select forms c committees of m members each from the tickets. It returns
// an error if there are fewer than c·m tickets.
func Select(tickets []Ticket, c, m int) ([]Committee, error) {
	if c <= 0 || m <= 0 {
		return nil, fmt.Errorf("sortition: invalid c=%d m=%d", c, m)
	}
	need := c * m
	if len(tickets) < need {
		return nil, fmt.Errorf("sortition: need %d tickets, have %d", need, len(tickets))
	}
	sorted := append([]Ticket(nil), tickets...)
	sort.Slice(sorted, func(i, j int) bool {
		for k := range sorted[i].Hash {
			if sorted[i].Hash[k] != sorted[j].Hash[k] {
				return sorted[i].Hash[k] < sorted[j].Hash[k]
			}
		}
		return sorted[i].Device < sorted[j].Device
	})
	committees := make([]Committee, c)
	for x := 0; x < need; x++ {
		ci := x / m
		committees[ci] = append(committees[ci], sorted[x].Device)
	}
	return committees, nil
}

// SizeParams configures the committee-size computation.
type SizeParams struct {
	F   float64 // fraction of malicious participants (e.g. 0.03)
	G   float64 // tolerated offline fraction per committee (e.g. 0.15)
	P   float64 // total privacy-failure probability over the deployment's life
	R   int     // expected number of rounds (queries)
	Max int     // search cap on m (default 2048)
}

// DefaultSizeParams matches the paper's evaluation setup: f = 3%, g = 15%,
// p = 10^-8 over 1,000 queries.
var DefaultSizeParams = SizeParams{F: 0.03, G: 0.15, P: 1e-8, R: 1000, Max: 2048}

// PerRoundFailure converts the lifetime failure bound p over R rounds to the
// per-round bound p1 with p = 1 − (1 − p1)^R.
func (sp SizeParams) PerRoundFailure() float64 {
	if sp.R <= 1 {
		return sp.P
	}
	return -math.Expm1(math.Log1p(-sp.P) / float64(sp.R))
}

// committeeFailureLog returns log of the probability that a single
// m-member committee lacks an honest majority among its (1−g)·m members that
// remain online, assuming malicious members never go offline (Section 5.1):
// P[fail] = P[Binomial(m, f) > ⌊(1−g)·m/2⌋... specifically the committee
// fails if the number of malicious members i exceeds the honest-majority
// margin, i.e. survives only when i ≤ ⌊(1−g)·m/2⌋.
func committeeFailureLog(m int, f, g float64) float64 {
	keep := int(math.Floor((1 - g) * float64(m) / 2))
	// log P[ok] = log Σ_{i=0..keep} C(m,i) f^i (1-f)^(m-i), in log space.
	logOK := math.Inf(-1)
	lf, l1f := math.Log(f), math.Log1p(-f)
	for i := 0; i <= keep && i <= m; i++ {
		term := logChoose(m, i) + float64(i)*lf + float64(m-i)*l1f
		logOK = logAdd(logOK, term)
	}
	if logOK >= 0 {
		return math.Inf(-1) // P[ok] = 1 ⇒ no failure
	}
	// P[fail one committee] = 1 − P[ok]
	return math.Log(-math.Expm1(logOK))
}

// MinCommitteeSize returns the smallest committee size m such that, with c
// committees, the probability that any committee lacks an honest majority is
// at most the per-round bound: 1 − (P[one ok])^c ≤ p1. The paper reports
// sizes of about 40 at the default parameters, growing slowly with c.
func MinCommitteeSize(c int, sp SizeParams) (int, error) {
	if c <= 0 {
		return 0, errors.New("sortition: committee count must be positive")
	}
	if sp.F <= 0 || sp.F >= 0.5 || sp.G < 0 || sp.G >= 1 {
		return 0, fmt.Errorf("sortition: invalid f=%g g=%g", sp.F, sp.G)
	}
	p1 := sp.PerRoundFailure()
	maxM := sp.Max
	if maxM == 0 {
		maxM = 2048
	}
	for m := 3; m <= maxM; m++ {
		logFail1 := committeeFailureLog(m, sp.F, sp.G)
		// P[any of c committees fails] ≤ c · P[one fails] (union bound,
		// tight at these probabilities); compare in log space.
		logFailAll := math.Log(float64(c)) + logFail1
		if logFailAll <= math.Log(p1) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("sortition: no committee size ≤ %d achieves p1=%g with c=%d", maxM, p1, c)
}

// logChoose returns log C(n, k) via lgamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk - lnk
}

// logAdd returns log(e^a + e^b) stably.
func logAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// NextBlock derives the next round's random block B_{i+1} from the XOR of
// the committee members' random contributions (Section 5.2).
func NextBlock(contributions [][]byte) ([]byte, error) {
	if len(contributions) == 0 {
		return nil, errors.New("sortition: no contributions")
	}
	out := make([]byte, sha256.Size)
	for _, c := range contributions {
		if len(c) != sha256.Size {
			return nil, fmt.Errorf("sortition: contribution must be %d bytes", sha256.Size)
		}
		for i := range out {
			out[i] ^= c[i]
		}
	}
	return out, nil
}
