//go:build race

package memoserver

// raceEnabled reports a -race build, where sync.Pool drops some of what it
// is handed and allocation budgets read higher.
const raceEnabled = true
