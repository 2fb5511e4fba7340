//go:build !race

package ridmap

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
