package e2e

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/adf"
	"repro/internal/core"
	"repro/internal/memoserver"
	"repro/internal/placement"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transport"
)

// The fixed cluster shape every run uses: three memo servers in a full
// mesh, one folder server per host. Keys are spread over a small fixed
// keyspace so takes and puts collide often.
const (
	hostCount = 3
	keyCount  = 8
	pairCount = hostCount * (hostCount - 1) // directed inter-node links
)

var hostNames = [hostCount]string{"a", "b", "c"}

const chaosADF = `APP chaos
HOSTS
a 1 sun4 1
b 1 sun4 1
c 1 sun4 1
FOLDERS
0 a
1 b
2 c
PROCESSES
0 boss a
1 worker b
2 worker c
PPC
a <-> b 1
a <-> c 1
b <-> c 1
`

// chaosFile and chaosPlace are chaosADF parsed and placed once: daemons,
// handles and the runner's owner-local rule all place a key with this map.
var chaosFile, chaosPlace = func() (*adf.File, *placement.Map) {
	f, err := adf.Parse(chaosADF)
	if err != nil {
		panic(err)
	}
	p, err := placement.New(f, nil, placement.Options{})
	if err != nil {
		panic(err)
	}
	return f, p
}()

// chaosKey maps a trace key index to the shared keyspace, numeric as the
// memo CLI spells keys. The settle phase's watcher-convergence probes use
// named keys outside it ("sentinel0", "sentinel1"), which each handle
// resolves for itself, so they also check that names agree across
// processes.
func chaosKey(i int) symbol.Key { return symbol.K(symbol.Symbol(100 + i)) }
func pairOf(p int) (from, to int) { // directed pair index -> host indices
	from = p / (hostCount - 1)
	to = p % (hostCount - 1)
	if to >= from {
		to++
	}
	return from, to
}

// pairHosts is pairOf in host names.
func pairHosts(p int) (from, to string) {
	f, t := pairOf(p)
	return hostNames[f], hostNames[t]
}

// eventually polls ok every interval until it holds, or d has passed.
func eventually(d, interval time.Duration, ok func() bool) bool {
	for deadline := time.Now().Add(d); !ok(); time.Sleep(interval) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// Binaries are the black-box artifacts under test.
type Binaries struct {
	Memoserverd string
	Memo        string
}

// raceBuilt reports whether the harness itself was built with -race; the
// race-tagged init in race.go flips it.
var raceBuilt = false

// BuildBinaries compiles the two real commands into dir. The harness
// only ever talks to these binaries over TCP, argv, and exit codes. When
// the harness itself is race-built, so are the daemons, putting the race
// detector inside the servers for the whole chaos run.
func BuildBinaries(dir string) (Binaries, error) {
	b := Binaries{
		Memoserverd: filepath.Join(dir, "memoserverd"),
		Memo:        filepath.Join(dir, "memo"),
	}
	for out, pkg := range map[string]string{
		b.Memoserverd: "repro/cmd/memoserverd",
		b.Memo:        "repro/cmd/memo",
	} {
		args := []string{"build", "-o", out}
		if raceBuilt {
			args = append(args, "-race")
		}
		cmd := exec.Command("go", append(args, pkg)...)
		if msg, err := cmd.CombinedOutput(); err != nil {
			return b, fmt.Errorf("build %s: %v\n%s", pkg, err, msg)
		}
	}
	return b, nil
}

// Daemon is one memoserverd process plus everything needed to kill and
// resurrect it: listen and debug addresses, data directory, argv. Both
// addresses are "127.0.0.1:0" until the first boot's ready file names the
// ports the daemon chose; a restart re-binds those, so handles and proxies
// re-dial what they knew.
type Daemon struct {
	Host      string
	Listen    string
	Debug     string
	DataDir   string
	ReadyFile string
	LogPath   string

	bin  string
	args []string
	cmd  *exec.Cmd
	logf *os.File
}

// Start launches the daemon, waits for its ready file and reads the bound
// addresses from it: the listener on its first line, then `debug <addr>`.
func (d *Daemon) Start() error {
	if err := os.Remove(d.ReadyFile); err != nil && !os.IsNotExist(err) {
		return err
	}
	lf, err := os.OpenFile(d.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(d.bin, append([]string{"-listen", d.Listen, "-debug-addr", d.Debug}, d.args...)...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return err
	}
	d.cmd = cmd
	d.logf = lf
	var ready []byte
	if !eventually(10*time.Second, 20*time.Millisecond, func() bool { ready, err = os.ReadFile(d.ReadyFile); return err == nil }) {
		return fmt.Errorf("daemon %s: ready file %s never appeared; log:\n%s", d.Host, d.ReadyFile, logTail(d.LogPath, 20))
	}
	f := strings.Fields(string(ready))
	if len(f) != 3 || f[1] != "debug" {
		return fmt.Errorf("daemon %s: ready file %q does not name both addresses", d.Host, ready)
	}
	d.Listen, d.Debug = f[0], f[2]
	return nil
}

// Kill SIGKILLs the daemon — the crash the WAL exists for.
func (d *Daemon) Kill() {
	if d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
	d.logf.Close()
	d.cmd = nil
}

// Term asks for a clean shutdown and verifies it: exit status 0 and the
// "bye" line that only the flushed-WAL path logs.
func (d *Daemon) Term() error {
	if d.cmd == nil {
		return fmt.Errorf("daemon %s not running", d.Host)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		d.logf.Close()
		d.cmd = nil
		if err != nil {
			// Exit 66 is the race detector; whatever it was, the log is
			// about to vanish with the run's TempDir, so quote its tail.
			return fmt.Errorf("daemon %s: unclean exit: %v\n%s", d.Host, err, logTail(d.LogPath, 60))
		}
	case <-time.After(15 * time.Second):
		d.Kill()
		return fmt.Errorf("daemon %s: SIGTERM drain hung", d.Host)
	}
	log, err := os.ReadFile(d.LogPath)
	if err != nil {
		return err
	}
	if !strings.Contains(string(log), "bye") {
		return fmt.Errorf("daemon %s: no clean-shutdown marker in log %s", d.Host, d.LogPath)
	}
	return nil
}

// Cluster is the live system under test.
type Cluster struct {
	Bins    Binaries
	ADFPath string
	Nodes   [hostCount]*Daemon
	Proxies [pairCount]*Proxy
	logf    func(string, ...any)
}

// NewCluster wires every directed peer link through its own proxy (each
// listening on a port of its own choosing, its target set once the daemon
// behind it has booted), writes the ADF, and prepares (but does not start)
// the nodes.
func NewCluster(dir string, bins Binaries, logf func(string, ...any)) (*Cluster, error) {
	c := &Cluster{Bins: bins, ADFPath: filepath.Join(dir, "chaos.adf"), logf: logf}
	if err := os.WriteFile(c.ADFPath, []byte(chaosADF), 0o644); err != nil {
		return nil, err
	}

	var err error
	for p := range c.Proxies {
		if c.Proxies[p], err = NewProxy("127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	for i := range c.Nodes {
		host := hostNames[i]
		d := &Daemon{
			Host:      host,
			Listen:    "127.0.0.1:0",
			Debug:     "127.0.0.1:0",
			DataDir:   filepath.Join(dir, "data-"+host),
			ReadyFile: filepath.Join(dir, host+".ready"),
			LogPath:   filepath.Join(dir, host+".log"),
			bin:       bins.Memoserverd,
		}
		d.args = []string{
			"-host", host,
			"-data-dir", d.DataDir,
			"-ready-file", d.ReadyFile,
			// Aggressive snapshots so chaos runs cross the snapshot+truncate
			// and generation-rollover paths, not just plain appends.
			"-snapshot-every", "64",
			// Fast link timings: seconds of chaos, not minutes.
			"-heartbeat-interval", "250ms",
			"-redial-backoff", "20ms",
			"-link-retries", "2",
			// Sample every request: a failed run's forensics bundle gets the
			// span trees of whatever the oracle is about to complain about.
			"-trace-sample", "1",
		}
		for p := range c.Proxies {
			from, to := pairOf(p)
			if from == i {
				d.args = append(d.args, "-peer", hostNames[to]+"="+c.Proxies[p].Addr())
			}
		}
		c.Nodes[i] = d
	}
	return c, nil
}

// StartAll boots every node, points the proxies in front of each at the
// address it bound, and registers the application with each.
func (c *Cluster) StartAll() error {
	for i, d := range c.Nodes {
		if err := d.Start(); err != nil {
			return err
		}
		for p, px := range c.Proxies {
			if _, to := pairOf(p); to == i {
				px.target.Store(d.Listen)
			}
		}
	}
	for i := range c.Nodes {
		if err := c.registerLib(i); err != nil {
			return err
		}
	}
	return nil
}

// registerLib registers the ADF with node i through the client library.
func (c *Cluster) registerLib(i int) error {
	cl, err := c.rawClient(i)
	if err != nil {
		return err
	}
	defer cl.Close()
	return cl.Register(chaosADF)
}

// RegisterCLI re-registers the ADF with node i through the memo binary —
// the path an operator uses after restarting a daemon.
func (c *Cluster) RegisterCLI(i int) error {
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		out, err := c.CLI(i, "register")
		if err == nil && out.OK {
			return nil
		}
		lastErr = fmt.Errorf("register attempt %d: %v (%s)", attempt, err, out.Error)
		time.Sleep(100 * time.Millisecond)
	}
	return lastErr
}

// rawClient dials node i's wire endpoint directly (no placement, no core).
func (c *Cluster) rawClient(i int) (*memoserver.Client, error) {
	tcp := transport.NewTCP()
	addr := c.Nodes[i].Listen
	dial := func(srcHost, logical string) (transport.Conn, error) { return tcp.Dial(addr) }
	return memoserver.DialClientResilient(dial, hostNames[i], chaosFile.App, rpc.Policy{},
		rpc.Resilience{Heartbeat: rpc.DefaultHeartbeat, Retries: 2})
}

// Memo opens a full client-library handle entering the cluster at node i —
// core.Open, as cmd/memo's op mode and cluster.NewMemo use it, so key
// placement agrees with every other participant.
func (c *Cluster) Memo(i int) (*core.Memo, error) {
	client, err := c.rawClient(i)
	if err != nil {
		return nil, err
	}
	return core.Open(chaosFile, hostNames[i], chaosPlace, client)
}

// CLIResult is one parsed -json line from the memo binary.
type CLIResult struct {
	OK    bool   `json:"ok"`
	Op    string `json:"op"`
	Key   string `json:"key"`
	Value string `json:"value"`
	Empty bool   `json:"empty"`
	Error string `json:"error"`
	Token string `json:"token"`
	Code  int    `json:"-"`
}

// Err is the operation's failure (nil if it succeeded). The CLI reports only
// a message and the op's dedup token, so a ledger books a failure as
// uncertain, named by that token.
func (r CLIResult) Err() error {
	if r.OK {
		return nil
	}
	err := fmt.Errorf("memo %s: exit %d: %s", r.Op, r.Code, r.Error)
	if tok, perr := strconv.ParseUint(r.Token, 0, 64); perr == nil && tok != 0 {
		return &core.TokenError{Token: tok, Err: err}
	}
	return err
}

// Kill SIGKILLs node i, resurrects it from its data directory and
// re-registers the app via the CLI.
func (c *Cluster) Kill(i int) error {
	c.Nodes[i].Kill()
	if err := c.Nodes[i].Start(); err != nil {
		return err
	}
	return c.RegisterCLI(i)
}

// Sever cuts directed link pair at its proxy; Heal restores it.
func (c *Cluster) Sever(pair int) { c.Proxies[pair].Sever() }
func (c *Cluster) Heal(pair int)  { c.Proxies[pair].Heal() }

// PutCLI and GetSkipCLI run one op through the memo binary at node i.
func (c *Cluster) PutCLI(i int, key symbol.Key, val string) (CLIResult, error) {
	return c.CLI(i, "put", "-key", key.Canon(), "-value", val)
}

func (c *Cluster) GetSkipCLI(i int, key symbol.Key) (CLIResult, error) {
	return c.CLI(i, "get-skip", "-key", key.Canon())
}

// Ping asks node i through the memo binary whether it answers.
func (c *Cluster) Ping(i int) error {
	out, err := c.CLI(i, "ping")
	return errors.Join(err, out.Err())
}

// Metrics scrapes node i's /metrics.
func (c *Cluster) Metrics(i int) ([]byte, error) { return scrapeBody(c.Nodes[i].Debug, "/metrics") }

// Shutdown SIGTERMs every running node and verifies each drained cleanly.
func (c *Cluster) Shutdown() error {
	var firstErr error
	for _, d := range c.Nodes {
		if d.cmd == nil {
			continue
		}
		if err := d.Term(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, p := range c.Proxies {
		p.Close()
	}
	return firstErr
}

// Abort hard-kills everything (cleanup path for failed runs).
func (c *Cluster) Abort() {
	for _, d := range c.Nodes {
		if d != nil && d.cmd != nil {
			d.Kill()
		}
	}
	for _, p := range c.Proxies {
		if p != nil {
			p.Close()
		}
	}
}

// Forensics scrapes every node's debug endpoints into dir — called on a
// failed run before the cluster is torn down, so the artifact bundle holds
// the metrics (per-peer link health among them) and trace samples (span
// trees and slow requests) of the run the oracle rejected. Per-node scrape failures are recorded inside the
// bundle instead of aborting it: a node may legitimately be dead at failure
// time.
func (c *Cluster) Forensics(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range c.Nodes {
		for _, ep := range []struct{ path, file string }{
			{"/metrics", d.Host + "-metrics.txt"},
			{"/tracez", d.Host + "-tracez.json"},
		} {
			body, err := scrapeBody(d.Debug, ep.path)
			if err != nil {
				body = []byte("scrape failed: " + err.Error() + "\n")
			}
			if werr := os.WriteFile(filepath.Join(dir, ep.file), body, 0o644); werr != nil {
				return werr
			}
		}
	}
	return nil
}

// logTail returns the last n lines of a daemon log for error messages —
// the run directory is a TempDir, so this is the only copy that survives.
func logTail(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "(log unreadable: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// scrapeBody fetches one debug endpoint with a short timeout (forensics run
// while nodes may be dead; a hang here must not stall the teardown).
func scrapeBody(debugAddr, path string) ([]byte, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + debugAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
