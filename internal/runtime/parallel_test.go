package runtime

// Worker-count determinism: a deployment with a fixed seed must release
// byte-identical results — outputs, accepted counts, and measured metrics —
// whether the per-device work runs on 1 worker or many. All seeded-RNG draws
// happen sequentially on the coordinating goroutine; the parallel sections
// consume only crypto/rand, which never reaches the released values.

import (
	"reflect"
	"testing"
)

// stableMetrics zeroes the fields that measure byte lengths and MPC round
// counts of ciphertexts: those depend on crypto/rand draws (a Paillier
// ciphertext is occasionally a byte shorter) and vary run to run even
// sequentially. The remaining counters must be exact.
func stableMetrics(m Metrics) Metrics {
	m.DeviceBytesSent = 0
	m.AggregatorBytes = 0
	m.CommitteeBytes = 0
	m.MPCRounds = 0
	return m
}

func runOnce(t *testing.T, workers int, src string, fanout int) (*Result, Metrics) {
	t.Helper()
	d, err := NewDeployment(Config{
		N: 48, Categories: 6, CommitteeSize: 5, Seed: 42,
		MaliciousFrac: 0.05, BudgetEpsilon: 1e9, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWith(t, d, src, nil, withFanout(fanout))
	if err != nil {
		t.Fatal(err)
	}
	return res, d.Metrics
}

// TestRunDeterministicAcrossWorkers runs the same seeded query at 1 and 8
// workers and demands identical outputs and metrics.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	src := "aggr = sum(db);\nresult = em(aggr, 3.0);\noutput(result);"
	res1, m1 := runOnce(t, 1, src, 0)
	res8, m8 := runOnce(t, 8, src, 0)
	if !reflect.DeepEqual(res1.Outputs, res8.Outputs) {
		t.Fatalf("outputs differ across worker counts: %v vs %v", res1.Outputs, res8.Outputs)
	}
	if res1.Accepted != res8.Accepted || res1.Sampled != res8.Sampled {
		t.Fatalf("accepted/sampled differ: %d/%d vs %d/%d",
			res1.Accepted, res1.Sampled, res8.Accepted, res8.Sampled)
	}
	if stableMetrics(m1) != stableMetrics(m8) {
		t.Fatalf("metrics differ across worker counts:\n1 worker: %+v\n8 workers: %+v", m1, m8)
	}
}

// TestSumTreeDeterministicAcrossWorkers exercises the planner's sum-tree
// choice — the shard-combine fanout — at both worker counts, and against the
// default pairwise combine: the fanout reshapes the tree, never the result.
func TestSumTreeDeterministicAcrossWorkers(t *testing.T) {
	src := "aggr = sum(db);\nresult = em(aggr, 3.0);\noutput(result);"
	res1, m1 := runOnce(t, 1, src, 4)
	res8, m8 := runOnce(t, 8, src, 4)
	if !reflect.DeepEqual(res1.Outputs, res8.Outputs) {
		t.Fatalf("sum-tree outputs differ: %v vs %v", res1.Outputs, res8.Outputs)
	}
	if stableMetrics(m1) != stableMetrics(m8) {
		t.Fatalf("sum-tree metrics differ:\n1 worker: %+v\n8 workers: %+v", m1, m8)
	}
	resDef, mDef := runOnce(t, 8, src, 0)
	if !reflect.DeepEqual(res1.Outputs, resDef.Outputs) || stableMetrics(m1) != stableMetrics(mDef) {
		t.Fatalf("fanout 4 diverged from the default combine: %v vs %v", res1.Outputs, resDef.Outputs)
	}
}
