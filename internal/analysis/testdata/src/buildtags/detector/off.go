//go:build !race

package detector

// Race reports whether the race detector is on.
const Race = false
