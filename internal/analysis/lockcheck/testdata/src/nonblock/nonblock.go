// Package nonblock exercises lockcheck's nonblocking rule: a function marked
// nonblocking reaches no function marked blocks, directly or through
// functions of its own package.
package nonblock

import "durable"

type conn struct {
	wal   *durable.Log
	calls int
}

// wait blocks until its call is answered.
//
//memolint:blocks
func (c *conn) wait() {}

// Direct waits itself.
//
//memolint:nonblocking
func (c *conn) Direct() {
	c.wait() // want `Direct is nonblocking but calls conn.wait, which blocks`
}

// ViaHelper reaches the WAL's fsync through one unmarked helper.
//
//memolint:nonblocking
func (c *conn) ViaHelper() {
	c.commit() // want `ViaHelper is nonblocking but calls conn.commit, which blocks in conn.commit → Log.Commit`
}

func (c *conn) commit() { _ = c.wal.Commit(0, 1) }

// Clean counts, hands the wait to a goroutine, and builds a closure it does
// not run: nothing here waits.
//
//memolint:nonblocking
func (c *conn) Clean() {
	c.count()
	go c.wait()
	f := func() { c.wait() }
	_ = f
}

func (c *conn) count() { c.calls++ }
