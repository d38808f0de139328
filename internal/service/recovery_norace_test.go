//go:build !race

package service

// recoverySchedules is the crash-restart sweep width: 30 independent seeded
// daemon-death schedules (the acceptance floor for crash recovery). The race
// pass runs a smaller slice (recovery_race_test.go).
const recoverySchedules = 30

// prefixStride is the step of the prefix enumeration: every record boundary
// of the recorded session.
const prefixStride = 1
