//go:build race

package main

// raceEnabled reports a race-detector build, which runs the engines
// several times slower.
const raceEnabled = true
