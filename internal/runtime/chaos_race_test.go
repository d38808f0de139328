//go:build race

package runtime

// Under the race detector the full 51-run sweep would dominate tier-1 wall
// time; a smaller slice keeps the race pass focused on interleavings — the
// full coverage sweep runs in the non-race pass.
const chaosSchedules = 5

// Forty instrumented end-to-end runs would take the race pass past its
// timeout; these three cover the em, top-k and max+noise paths.
var seamQueries = []string{"top1", "topK", "gap"}
