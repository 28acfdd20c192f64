//go:build race

package eco

// raceEnabled reports a -race build. The single-goroutine reference
// sweeps shrink under it: the detector adds nothing to them but a tenfold
// slowdown.
const raceEnabled = true
