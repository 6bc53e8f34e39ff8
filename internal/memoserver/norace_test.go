//go:build !race

package memoserver

const raceEnabled = false
