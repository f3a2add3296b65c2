//go:build race

package transport

// raceEnabled reports that the race detector instruments this build; the
// timing-bound precision test skips, since it would measure the
// instrumentation.
const raceEnabled = true
