//go:build race

package alarm

// raceEnabled reports that the race detector instruments this build: the
// precision test would measure the instrumentation, not the alarm.
const raceEnabled = true
