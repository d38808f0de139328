package runtime

import (
	"testing"
)

// Certify is the gateway's admission pricer: it must agree exactly with the
// certificate Run later attaches, because the ledger reserves the former and
// commits the latter.
func TestCertifyMatchesRunCertificate(t *testing.T) {
	const n, categories = 64, 4
	src := `aggr = sum(db);
noised = laplace(aggr[0], 1.0);
output(declassify(noised));`
	cert, err := Certify(src, n, categories)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Epsilon <= 0 {
		t.Fatalf("certified ε = %g, want > 0", cert.Epsilon)
	}
	d := smallDeployment(t, n, categories)
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certificate.Epsilon != cert.Epsilon || res.Certificate.Delta != cert.Delta {
		t.Fatalf("Certify (ε=%g, δ=%g) disagrees with Run's certificate (ε=%g, δ=%g)",
			cert.Epsilon, cert.Delta, res.Certificate.Epsilon, res.Certificate.Delta)
	}
}

// Certification is a pure function of (source, n, categories) — no
// deployment, no side effects — and rejects non-private programs.
func TestCertifyRejects(t *testing.T) {
	if _, err := Certify("aggr = sum(db);\noutput(declassify(aggr[0]));", 64, 4); err == nil {
		t.Error("unnoised release certified")
	}
	if _, err := Certify("this is not a program", 64, 4); err == nil {
		t.Error("unparseable program certified")
	}
}

// TestExecuteRunsItsAdmission: Execute runs the program, certificate and
// plan Admit made, and reads the source only for the plan digest: an
// Admitted value whose source no longer parses still runs, and the result
// carries the very certificate Admit returned. A deployment of another shape
// refuses it before anything is charged.
func TestExecuteRunsItsAdmission(t *testing.T) {
	const n, categories = 64, 4
	a, err := Admit(`aggr = sum(db);
output(declassify(laplace(aggr[0], 1.0)));`, n, categories)
	if err != nil {
		t.Fatal(err)
	}
	a.src = "not a program"
	other := smallDeployment(t, n, 2*categories)
	if _, err := other.Execute(a, RunOptions{}); err == nil {
		t.Error("a deployment of another shape ran the query")
	}
	untouched(t, other, 10)
	res, err := smallDeployment(t, n, categories).Execute(a, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certificate != a.Certificate || res.Plan != a.plan {
		t.Error("the run charged or ran something other than its admission")
	}
}
