package runtime

import (
	"crypto/sha256"
	"testing"

	"arboretum/internal/sortition"
)

const countSrc = `aggr = sum(db);
noised = laplace(aggr[0], 5.0);
output(declassify(noised));`

// With moderate churn, queries still complete: offline devices skip their
// upload, and committees that lost too many members hand their tasks to the
// next committee (Section 5.1).
func TestChurnQueryStillCompletes(t *testing.T) {
	d := smallDeployment(t, 200, 1, func(c *Config) {
		c.OfflineFrac = 0.2
		c.CommitteeSize = 9
		c.Data = func(int) int { return 0 }
	})
	// 9-member committees tolerating a third offline: a 20%-churn world
	// needs either bigger committees or a bigger g, exactly the trade the
	// MinCommitteeSize solver captures at scale.
	d.g = 0.34
	res, err := d.Run(countSrc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Roughly 80% of 200 devices upload.
	if res.Accepted < 130 || res.Accepted > 190 {
		t.Errorf("accepted %d inputs under 20%% churn", res.Accepted)
	}
	got := res.Outputs[0].Float()
	if got < float64(res.Accepted)-15 || got > float64(res.Accepted)+15 {
		t.Errorf("count %g far from online population %d", got, res.Accepted)
	}
}

func TestExcessiveChurnRejected(t *testing.T) {
	if _, err := NewDeployment(Config{N: 64, Categories: 2, OfflineFrac: 0.6}); err == nil {
		t.Fatal("60% churn accepted")
	}
}

// TestViableCommitteeMatrix sweeps committee size × churn tolerance × churn
// level and pins the exact accept/reject boundary: a committee is viable iff
// a reconstructing strict majority of the original size remains online (and
// at least 3 members, the MPC floor), and the offline count stays within the
// paper's tolerated fraction g·m.
func TestViableCommitteeMatrix(t *testing.T) {
	d := smallDeployment(t, 64, 2)
	cases := []struct {
		m int     // committee size
		g float64 // tolerance (0 = the default, sortition.DefaultSizeParams.G)
	}{
		{4, 0.15},
		{5, 0.15},
		{7, 0},     // default tolerance
		{9, 0.34},  // the churn-test setup: tolerates 3 of 9
		{10, 0.15}, // the paper's defaults
		{10, 0.3},
		{16, 0.2},
	}
	def := d.g // the tolerance NewDeployment set
	for _, tc := range cases {
		d.g = tc.g
		gEff := tc.g
		if tc.g == 0 {
			d.g, gEff = def, sortition.DefaultSizeParams.G
		}
		c := make(sortition.Committee, tc.m)
		for i := range c {
			c[i] = i
		}
		for offline := 0; offline <= tc.m; offline++ {
			for i := 0; i < tc.m; i++ {
				d.Devices[i].Offline = i < offline
			}
			online := tc.m - offline
			want := online >= tc.m/2+1 && online >= 3 &&
				float64(offline) <= gEff*float64(tc.m)
			if got := d.viableCommittee(c); got != want {
				t.Errorf("m=%d g=%g offline=%d: viable=%v, want %v",
					tc.m, tc.g, offline, got, want)
			}
		}
		for i := 0; i < tc.m; i++ {
			d.Devices[i].Offline = false
		}
	}
}

func TestPickViableReassigns(t *testing.T) {
	d := smallDeployment(t, 64, 2)
	broken := sortition.Committee{0, 1, 2, 3, 4}
	for _, id := range broken[:3] {
		d.Devices[id].Offline = true
	}
	healthy := sortition.Committee{10, 11, 12, 13, 14}
	healthy2 := sortition.Committee{20, 21, 22, 23, 24}
	healthy3 := sortition.Committee{30, 31, 32, 33, 34}
	// A broken committee among the spares is no reassignment: it is left out
	// of the pool.
	out, spares, err := d.pickViable([]sortition.Committee{broken, healthy, healthy2, broken, healthy3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0][0] != 10 || out[1][0] != 20 || len(spares) != 1 || spares[0][0] != 30 {
		t.Errorf("reassignment picked %v, leaving spares %v", out, spares)
	}
	if d.Metrics.Reassignments != 1 {
		t.Errorf("reassignments = %d, want 1", d.Metrics.Reassignments)
	}
	// Not enough viable committees → error.
	if _, _, err := d.pickViable([]sortition.Committee{broken, healthy}, 2); err == nil {
		t.Fatal("insufficient viable committees accepted")
	}
}

// TestChurnRepeatedQueries: Reassignments is a lifetime counter, and Run once
// used it to slice the spare pool — skipping viable spares on the second
// query of a deployment with churn and slicing out of range by the fourth.
// Eight consecutive queries must each complete or fail with a typed error.
func TestChurnRepeatedQueries(t *testing.T) {
	d, err := NewDeployment(Config{
		N: 64, Categories: 4, CommitteeSize: 5, Seed: 1, OfflineFrac: 0.12, BudgetEpsilon: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 8; q++ {
		if _, err := d.Run(countSrc, RunOptions{}); err != nil && !chaosTypedErr(err) {
			t.Errorf("query %d: untyped failure: %v", q, err)
		}
	}
	if d.Metrics.Reassignments == 0 {
		t.Error("no committee was reassigned; the churn shape no longer exercises the spare pool")
	}
}

// Query authorization certificates (Section 5.2): issued by the key
// committee, verified by devices, and rejecting tampering.
func TestCertificateIssueVerify(t *testing.T) {
	d := smallDeployment(t, 64, 4)
	res, err := d.Run(`aggr = sum(db);
noised = laplace(aggr[0], 2.0);
output(declassify(noised));`, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Auth == nil {
		t.Fatal("no authorization certificate issued")
	}
	if err := d.VerifyCertificate(res.Auth); err != nil {
		t.Fatalf("published certificate does not verify: %v", err)
	}
	if res.Auth.BudgetLeft <= 0 {
		t.Error("certificate missing remaining budget")
	}
	if res.Auth.RegistryRoot != d.registry.Root() {
		t.Error("certificate registry root mismatch")
	}
}

func TestCertificateTamperDetected(t *testing.T) {
	d := smallDeployment(t, 64, 4)
	res, err := d.Run(`aggr = sum(db);
noised = laplace(aggr[0], 2.0);
output(declassify(noised));`, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the plan digest: signatures must stop verifying.
	bad := *res.Auth
	bad.PlanDigest = sha256.Sum256([]byte("a different query"))
	if err := d.VerifyCertificate(&bad); err == nil {
		t.Fatal("tampered certificate verified")
	}
	// Tamper with the budget balance.
	bad2 := *res.Auth
	bad2.BudgetLeft += 100
	if err := d.VerifyCertificate(&bad2); err == nil {
		t.Fatal("budget-inflated certificate verified")
	}
	// Drop signatures.
	bad3 := *res.Auth
	bad3.Signatures = bad3.Signatures[:1]
	if err := d.VerifyCertificate(&bad3); err == nil {
		t.Fatal("signature-stripped certificate verified")
	}
	if err := d.VerifyCertificate(nil); err == nil {
		t.Fatal("nil certificate verified")
	}
}

// Grinding protection: a certificate whose registry root differs from the
// actual device registry is rejected (Section 5.2's M_i commitment).
func TestCertificateGrindingDetected(t *testing.T) {
	d := smallDeployment(t, 64, 4)
	res, err := d.Run(`aggr = sum(db);
noised = laplace(aggr[0], 2.0);
output(declassify(noised));`, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := *res.Auth
	bad.RegistryRoot[0] ^= 0xff
	if err := d.VerifyCertificate(&bad); err == nil {
		t.Fatal("wrong-registry certificate verified")
	}
}

// Across consecutive queries the certificates chain: each reports a smaller
// remaining budget, and the sortition block advances so committees rotate.
func TestCertificateBudgetChain(t *testing.T) {
	d := smallDeployment(t, 96, 2, func(c *Config) { c.BudgetEpsilon = 10 })
	src := `aggr = sum(db);
noised = laplace(aggr[0], 1.0);
output(declassify(noised));`
	var prevBudget float64 = 11
	var prevBlock [32]byte
	for q := 0; q < 3; q++ {
		res, err := d.Run(src, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Auth.BudgetLeft >= prevBudget {
			t.Errorf("query %d: budget %g did not shrink from %g", q, res.Auth.BudgetLeft, prevBudget)
		}
		prevBudget = res.Auth.BudgetLeft
		if q > 0 && res.Auth.NextBlock == prevBlock {
			t.Errorf("query %d: sortition block did not advance", q)
		}
		prevBlock = res.Auth.NextBlock
		if res.Auth.QueryID != uint64(q+1) {
			t.Errorf("query %d: certificate sequence = %d, want %d", q, res.Auth.QueryID, q+1)
		}
	}
}
