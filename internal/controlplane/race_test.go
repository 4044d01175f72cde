//go:build race

package controlplane

// raceEnabled reports a -race build, under which the long sweeps sample.
const raceEnabled = true
