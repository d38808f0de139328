package runtime

// Worker-count determinism: a deployment with a fixed seed must release
// byte-identical results — outputs, accepted counts, and measured metrics —
// whether the per-device work runs on 1 worker or many (GOMAXPROCS sizes
// every pool). All seeded-RNG draws happen sequentially on the coordinating
// goroutine; the parallel sections consume only crypto/rand, which never
// reaches the released values.

import (
	"reflect"
	"slices"
	"testing"

	"arboretum/internal/queries"
)

func runOnce(t *testing.T, procs int, src string, fanout int) (*Result, Metrics) {
	t.Helper()
	d, err := NewDeployment(Config{
		N: 48, Categories: 6, CommitteeSize: 5, Seed: 42,
		MaliciousFrac: 0.05, BudgetEpsilon: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	withProcs(procs, func() { res, err = runWith(t, d, src, nil, withFanout(fanout)) })
	if err != nil {
		t.Fatal(err)
	}
	return res, d.Metrics
}

// TestRunDeterministicAcrossWorkers runs the same seeded query at GOMAXPROCS
// 1 and 8 and demands identical outputs and metrics.
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
	if m1 != m8 {
		t.Fatalf("metrics differ across worker counts:\n1 worker: %+v\n8 workers: %+v", m1, m8)
	}
}

// TestSumTreeDeterministicAcrossWorkers exercises the planner's sum-tree
// choice — the shard-combine fanout — at GOMAXPROCS 1 and 8, and against the
// default pairwise combine: the fanout reshapes the tree, never the result.
func TestSumTreeDeterministicAcrossWorkers(t *testing.T) {
	src := "aggr = sum(db);\nresult = em(aggr, 3.0);\noutput(result);"
	res1, m1 := runOnce(t, 1, src, 4)
	res8, m8 := runOnce(t, 8, src, 4)
	if !reflect.DeepEqual(res1.Outputs, res8.Outputs) {
		t.Fatalf("sum-tree outputs differ: %v vs %v", res1.Outputs, res8.Outputs)
	}
	if m1 != m8 {
		t.Fatalf("sum-tree metrics differ:\n1 worker: %+v\n8 workers: %+v", m1, m8)
	}
	resDef, mDef := runOnce(t, 8, src, 0)
	if !reflect.DeepEqual(res1.Outputs, resDef.Outputs) || m1 != mDef {
		t.Fatalf("fanout 4 diverged from the default combine: %v vs %v", res1.Outputs, resDef.Outputs)
	}
}

// TestMetricsRepeat: every Metrics field is a function of the inputs. Two
// runs of each corpus query on one seed and the same data (seamQueries
// under the race detector) count the same traffic, rounds and events: a
// ciphertext is charged its wire size, not the length of its random value.
func TestMetricsRepeat(t *testing.T) {
	for _, q := range queries.All {
		if len(seamQueries) > 0 && !slices.Contains(seamQueries, q.Name) {
			continue
		}
		var m [2]Metrics
		for i := range m {
			d := smallDeployment(t, 64, 8, func(c *Config) { c.Seed, c.BudgetEpsilon = 5, 1e9 })
			if _, err := d.Run(q.Source, RunOptions{}); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			m[i] = d.Metrics
		}
		if m[0] != m[1] {
			t.Errorf("%s: metrics differ between two runs of one seed:\n%+v\n%+v", q.Name, m[0], m[1])
		}
	}
}
