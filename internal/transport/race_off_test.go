//go:build !race

package transport

// raceEnabled mirrors race_on_test.go for uninstrumented builds.
const raceEnabled = false
