package runtime

import (
	"fmt"
	"reflect"
	"testing"

	"arboretum/internal/fixed"
	"arboretum/internal/queries"
)

// TestPinnedOutputs pins the released values of three query shapes at fixed
// seeds: top1 (the em path through decryptToShares), a laplace count (the
// AHE noising path, with malicious devices armed) and secrecy (the bin
// protocol's windowed sums). The values were recorded when every device
// still uploaded one ciphertext per cell, so they hold the packed upload and
// the key committee's unpack to the same bits. Each must come out identical
// at GOMAXPROCS one and four and at two ingest shard/batch shapes (0 = the
// default).
func TestPinnedOutputs(t *testing.T) {
	cases := []struct {
		name string
		src  string
		cats int
		seed int64
		mal  float64
		want []fixed.Fixed
	}{
		{"top1", queries.Top1.Source, 8, 7, 0, []fixed.Fixed{262144}},
		{"count", countSrc, 4, 11, 0.1, []fixed.Fixed{1769472}},
		{"secrecy", queries.Secrecy.Source, 4, 3, 0, []fixed.Fixed{2097152, -128974848, 133169152, 65536}},
	}
	shapes := []struct{ workers, shards, batch int }{ // workers: GOMAXPROCS
		{1, 0, 0},
		{4, 0, 0},
		{1, 3, 5},
		{4, 3, 5},
	}
	for _, tc := range cases {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/w%d.s%d.b%d", tc.name, sh.workers, sh.shards, sh.batch), func(t *testing.T) {
				d := smallDeployment(t, 64, tc.cats, func(c *Config) {
					c.Seed = tc.seed
					c.MaliciousFrac = tc.mal
					c.BudgetEpsilon = 1e9
				})
				if sh.shards > 0 {
					d.shards, d.batch = sh.shards, sh.batch
				}
				var res *Result
				var err error
				withProcs(sh.workers, func() { res, err = d.Run(tc.src, RunOptions{}) })
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Outputs, tc.want) {
					t.Errorf("outputs %#v, pinned %#v", res.Outputs, tc.want)
				}
			})
		}
	}
}
