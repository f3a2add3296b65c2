//go:build !race

package alarm

// raceEnabled mirrors race_on_test.go for uninstrumented builds.
const raceEnabled = false
