//go:build race

package evloop

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation makes allocation counts unreliable.
const raceEnabled = true
