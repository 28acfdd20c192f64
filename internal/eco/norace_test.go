//go:build !race

package eco

const raceEnabled = false
