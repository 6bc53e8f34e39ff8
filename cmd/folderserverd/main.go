// Command folderserverd runs one standalone folder server over TCP: a
// directory of unordered queues speaking the wire protocol directly.
// Normally folder servers live inside each host's memo server (Fig. 1); a
// standalone daemon is useful for dedicating a machine to folder storage or
// for debugging the protocol with raw clients.
//
//	folderserverd -id 3 -host bonnie -listen :7441
//
// With -data-dir the directory is durable: every mutation is write-ahead
// logged (group-committed per -fsync), snapshots truncate the log, and a
// restart — clean or after a crash — recovers every acknowledged memo,
// including still-hidden put_delayed values and applied dedup tokens.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/cmd/internal/daemon"
	"repro/internal/folder"
	"repro/internal/obs"
	"repro/internal/transport"
)

// config is folderserverd's command line: the shared daemon flags plus its
// own.
type config struct {
	*daemon.Flags
	id           int
	host, listen string
	shards       int
}

func register(fs *flag.FlagSet) *config {
	c := &config{Flags: daemon.Register(fs, "folderserverd")}
	fs.IntVar(&c.id, "id", 0, "folder server id (from the ADF FOLDERS section)")
	fs.StringVar(&c.host, "host", "", "logical host name")
	fs.StringVar(&c.listen, "listen", ":7441", "TCP listen address")
	fs.IntVar(&c.shards, "shards", 0, "store lock-stripe count, rounded up to a power of two (0 = default)")
	return c
}

func main() {
	c := register(flag.CommandLine)
	flag.Parse()

	if c.host == "" {
		fmt.Fprintln(os.Stderr, "folderserverd: -host is required")
		os.Exit(2)
	}
	var opts []folder.Option
	if c.shards > 0 {
		opts = append(opts, folder.WithShards(c.shards))
	}
	var slow *obs.SlowLog
	if c.SlowThreshold > 0 {
		slow = obs.NewSlowLog(c.SlowThreshold, 0)
		c.MirrorSlow(slow)
	}
	// The tracer exists even at -trace-sample 0: a request some memo server
	// sampled upstream still collects spans here (relay-only mode).
	tracer := obs.NewTracer(fmt.Sprintf("folder-%d@%s", c.id, c.host), c.TraceSample, c.TraceRing)
	srvOpts := []folder.ServerOption{folder.WithBatchPolicy(c.Batch), folder.WithSlowLog(slow), folder.WithTracer(tracer)}

	var srv *folder.Server
	if c.DataDir != "" {
		var err error
		srv, err = folder.OpenServer(c.id, c.host, c.DataDir, c.Durable, c.Cache, opts, srvOpts...)
		if err != nil {
			log.Fatal(err)
		}
		st := srv.Store()
		log.Printf("recovered %d memos, %d hidden delayed values, %d folders from %s",
			st.MemoCount(), st.DelayedCount(), st.FolderCount(), c.DataDir)
	} else {
		srv = folder.NewServer(c.id, c.host, folder.NewStore(opts...), c.Cache, srvOpts...)
	}
	srv.RegisterMetrics(obs.Default)

	tcp := transport.NewTCP()
	tcp.IdleTimeout = c.IdleTimeout
	l, err := tcp.Listen(c.listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("folder server %d on %s listening at %s", c.id, c.host, l.Addr())
	c.Ready(l.Addr(), slow, obs.WithTraceRing(tracer.Ring()))

	// Serve until SIGINT/SIGTERM: stop accepting, then flush and close the
	// WAL before exiting, so a routine restart loses nothing.
	failed := make(chan error, 1)
	go func() { failed <- srv.Serve(l) }()
	c.AwaitShutdown(failed)
	l.Close()
	srv.Close()
	log.Printf("folder state flushed; bye")
}
