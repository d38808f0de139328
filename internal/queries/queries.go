// Package queries contains the ten differentially private queries of the
// paper's evaluation (Table 2), written in Arboretum's query language: six
// new queries (top1, topK, gap, auction, hypotest, secrecy — the first five
// use the exponential mechanism) and four adapted from earlier systems
// (median from Böhler & Kerschbaum, cms from Honeycrisp, bayes and k-medians
// from Orchard). Queries are formulated as if all the data existed in a
// central place (Section 4.1); the planner handles distribution and
// encryption.
package queries

import (
	"fmt"

	"arboretum/internal/lang"
	"arboretum/internal/types"
)

// Query is one evaluation query with its deployment parameters.
type Query struct {
	Name       string
	Action     string // Table 2's "Action" column
	From       string // provenance
	Source     string
	Categories int64 // C: the db row width (Section 7.1's settings)
	K          int64 // topK's k
	ElemRange  types.Range
}

// Program parses the query source (panics only on programming errors in
// this package, which the tests rule out).
func (q Query) Program() *lang.Program { return lang.MustParse(q.Source) }

// Lines returns the formatted line count reported in Table 2.
func (q Query) Lines() int { return lang.LineCount(q.Program()) }

// Epsilon used throughout the evaluation.
const Epsilon = 0.1

// Top1 selects the most frequent item with the exponential mechanism
// (the running example of Figure 3).
var Top1 = Query{
	Name: "top1", Action: "Most frequent item", From: "Dwork & Roth [31]",
	Categories: 1 << 15, ElemRange: types.Range{Lo: 0, Hi: 1},
	Source: `aggr = sum(db);
result = em(aggr, 0.1);
output(result);`,
}

// TopK returns the k most frequent items (Durfee & Rogers).
var TopK = Query{
	Name: "topK", Action: "Top-K selection", From: "Durfee & Rogers [29]",
	Categories: 1 << 15, K: 5, ElemRange: types.Range{Lo: 0, Hi: 1},
	Source: `aggr = sum(db);
best = topk(aggr, 5, 0.1);
for i = 0 to 4 do
  output(best[i]);
endfor;`,
}

// Gap runs the exponential mechanism and additionally releases the noisy
// gap between the best and the runner-up (free gap estimates, Ding et al.).
var Gap = Query{
	Name: "gap", Action: "Exp. mechanism with gap", From: "Ding et al. [28]",
	Categories: 1 << 15, ElemRange: types.Range{Lo: 0, Hi: 1},
	Source: `aggr = sum(db);
winner = em(aggr, 0.1);
best = max(aggr);
second = max(aggr);
g = laplace(clip(best - second, 0, 1024), 0.1);
output(winner);
output(declassify(g));`,
}

// Auction prices an unbounded auction (McSherry & Talwar): each participant
// one-hot encodes its bid bucket; revenue at price p is p times the number
// of bids at or above p; the mechanism selects a near-optimal price.
var Auction = Query{
	Name: "auction", Action: "Unbounded auction", From: "McSherry & Talwar [45]",
	Categories: 1 << 15, ElemRange: types.Range{Lo: 0, Hi: 1},
	Source: `bids = sum(db);
n = len(bids);
atleast[n - 1] = bids[n - 1];
for i = 0 to n - 2 do
  atleast[n - 2 - i] = atleast[n - 1 - i] + bids[n - 2 - i];
endfor;
for p = 0 to n - 1 do
  revenue[p] = p * atleast[p];
endfor;
price = em(revenue, 0.1);
output(price);`,
}

// HypoTest privately tests a simple hypothesis on a single proportion
// (Canonne et al.): is the noised count above the threshold?
var HypoTest = Query{
	Name: "hypotest", Action: "Hypothesis testing", From: "Canonne et al. [20]",
	Categories: 1, ElemRange: types.Range{Lo: 0, Hi: 1},
	Source: `aggr = sum(db);
count = laplace(aggr[0], 0.1);
c = declassify(count);
threshold = 500000;
reject = 0;
if c > threshold then
  reject = 1;
endif;
accept = 1 - reject;
statistic = c - threshold;
output(reject);
output(accept);
output(statistic);`,
}

// Secrecy samples ~1% of the participants with secrecy of the sample and
// answers a counting query on the sample, amplifying the guarantee.
var Secrecy = Query{
	Name: "secrecy", Action: "Secrecy of sample", From: "Balle et al. [9]",
	Categories: 1, ElemRange: types.Range{Lo: 0, Hi: 1},
	Source: `sampleUniform(0.01);
aggr = sum(db);
count = laplace(aggr[0], 1.0);
c = declassify(count);
scaled = c * 100;
low = scaled - 2000;
high = scaled + 2000;
inrange = 0;
if low < high then
  inrange = 1;
endif;
output(scaled);
output(low);
output(high);
output(inrange);`,
}

// Median computes a differentially private median over a one-hot-encoded
// value domain (our variant of Böhler & Kerschbaum; Section 7's note: the
// implementation uses one-hot encoding and differs from [14] in details).
// Utility of bucket b is −|rank(b) − N/2|; the exponential mechanism picks a
// bucket with near-median rank.
var Median = Query{
	Name: "median", Action: "Median", From: "Böhler & Kerschbaum [14]",
	Categories: 1 << 15, ElemRange: types.Range{Lo: 0, Hi: 1},
	Source: `hist = sum(db);
n = len(hist);
rank[0] = hist[0];
for i = 1 to n - 1 do
  rank[i] = rank[i - 1] + hist[i];
endfor;
total = rank[n - 1];
half = total / 2;
for i = 0 to n - 1 do
  dev[i] = rank[i] - half;
  mag[i] = abs(dev[i]);
  util[i] = 0 - mag[i];
  score[i] = clip(util[i], -1073741824, 0);
endfor;
for i = 0 to n - 1 do
  shifted[i] = score[i] + 1073741824;
endfor;
m = em(shifted, 0.1);
output(m);`,
}

// CMS is Honeycrisp's count-mean-sketch query: sum a sketch of device
// values and release the noised sketch row.
var CMS = Query{
	Name: "cms", Action: "Count-mean sketch", From: "Honeycrisp [53]",
	Categories: 1, ElemRange: types.Range{Lo: 0, Hi: 1},
	Source: `sketch = sum(db);
noised = laplace(sketch[0], 0.1);
c = declassify(noised);
output(c);
output(c + 0);`,
}

// Bayes is Orchard's naive-Bayes query: per-class, per-feature counts (115
// categories as in the paper), each noised and released.
var Bayes = Query{
	Name: "bayes", Action: "Naive Bayes", From: "Orchard [54]",
	Categories: 115, ElemRange: types.Range{Lo: 0, Hi: 1},
	Source: `counts = sum(db);
n = len(counts);
for i = 0 to n - 1 do
  noised[i] = laplace(counts[i], 0.1);
endfor;
for i = 0 to n - 1 do
  released[i] = declassify(noised[i]);
endfor;
norm = released[0];
for i = 1 to n - 1 do
  norm = norm + released[i];
endfor;
output(norm);
for i = 0 to n - 1 do
  output(released[i]);
endfor;`,
}

// KMedians is Orchard's k-medians step: per-cluster sums and counts, noised,
// with new medians computed from the released values (C = 10 clusters).
var KMedians = Query{
	Name: "k-medians", Action: "K-Medians", From: "Orchard [54]",
	Categories: 10, ElemRange: types.Range{Lo: 0, Hi: 1},
	Source: `assign = sum(db);
n = len(assign);
for i = 0 to n - 1 do
  size[i] = laplace(assign[i], 0.1);
endfor;
for i = 0 to n - 1 do
  pub[i] = declassify(size[i]);
endfor;
for i = 0 to n - 1 do
  weight[i] = pub[i] * 2;
  center[i] = weight[i] / 2;
  shift[i] = center[i] + 1;
  adj[i] = shift[i] - 1;
endfor;
total = adj[0];
for i = 1 to n - 1 do
  total = total + adj[i];
endfor;
for i = 0 to n - 1 do
  output(adj[i]);
endfor;
output(total);`,
}

// All lists the evaluation queries in Table 2's order.
var All = []Query{Top1, TopK, Gap, Auction, HypoTest, Secrecy, Median, CMS, Bayes, KMedians}

// ByName finds a query.
func ByName(name string) (Query, error) {
	for _, q := range All {
		if q.Name == name {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("queries: unknown query %q", name)
}
