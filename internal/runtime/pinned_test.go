package runtime

import (
	"fmt"
	"reflect"
	"testing"

	"arboretum/internal/fixed"
	"arboretum/internal/queries"
)

// TestPinnedOutputs pins the released values of four query shapes at fixed
// seeds: top1 (the em path), a laplace count (integer noise on a count, with
// malicious devices armed), secrecy (the bin protocol's windowed sums) and
// auction (prefix sums and public-by-shared products over the counts). The
// values were recorded when every count was a ciphertext until its
// vignette decrypted it, so they hold the one decryption into shares to the
// same bits. Each must come out identical at GOMAXPROCS one and four and at
// two ingest shard/batch shapes (0 = the default).
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
		{"auction", queries.Auction.Source, 8, 5, 0, []fixed.Fixed{327680}},
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

// TestGapReleasesWholeNumber runs the gap query, whose laplace argument
// clip(best − second, 0, 1024) is Int-typed: its noise is integer, so the
// released g is a whole number, like every count's.
func TestGapReleasesWholeNumber(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d := smallDeployment(t, 64, 8, func(c *Config) {
			c.Seed = seed
			c.BudgetEpsilon = 1e9
		})
		res, err := d.Run(queries.Gap.Source, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if g := res.Outputs[1]; g%fixed.One != 0 {
			t.Errorf("seed %d: released g = %v, want a whole number", seed, g.Float())
		}
	}
}
