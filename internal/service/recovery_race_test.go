//go:build race

package service

// Under the race detector the full 30-schedule sweep would dominate tier-1
// wall time; a smaller slice keeps the race pass focused on interleavings —
// the full coverage sweep runs in the non-race pass.
const recoverySchedules = 6

// prefixStride: likewise every fourth record boundary of the recorded
// session (the non-race pass walks them all).
const prefixStride = 4
