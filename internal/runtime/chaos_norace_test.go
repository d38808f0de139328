//go:build !race

package runtime

// chaosSchedules sizes the acceptance sweep: 17 schedules × 3 shapes = 51
// end-to-end runs under fault injection (the acceptance floor is 50).
const chaosSchedules = 17

// seamQueries names the corpus queries TestRunIsPlanThenExecute covers; none
// means all ten, twice each at two worker counts.
var seamQueries []string
