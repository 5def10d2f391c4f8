//go:build !race

package evloop

const raceEnabled = false
