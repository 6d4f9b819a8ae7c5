// Package buildtags declares Race once per build: in race_on.go under
// the race detector and in race_off.go otherwise. The package it imports
// does the same. A loader that ignores //go:build lines sees every name
// declared twice.
package buildtags

import "randfill/internal/analysis/testdata/src/buildtags/detector"

// Both reports whether this package and detector agree on the build.
func Both() bool { return Race == detector.Race }
