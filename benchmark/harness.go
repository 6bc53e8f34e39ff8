package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/adf"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/memoserver"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transferable"
	"repro/internal/transport"
)

// The fixed cluster every workload runs against: two memo servers, one
// folder server each, loopback TCP.
const benchADF = `APP bench
HOSTS
a 1 sp1 1
b 1 sp1 1
FOLDERS
0 a
1 b
PROCESSES
0 boss a
1 worker b
PPC
a <-> b 1
`

var hostNames = [2]string{"a", "b"}

// daemonSync is the WAL sync policy the durable workloads start the daemons
// with. The work directory has to be inside the checkout, which is on
// whatever disk the host has, and a real fsync there (the daemons' default,
// -fsync batch) measured the disk, not the code: 4x lower goodput, stalls of
// hundreds of milliseconds, run-to-run spread beyond any usable bound. With
// "never" the WAL runs the same append, group-commit, write and snapshot
// code and skips only the fsync system call; what that call costs on this
// disk is reported separately as durable.fsync_device_us.
const daemonSync = durable.SyncNever

// buildDir is where everything the benchmark leaves behind goes: the built
// daemon, per-run work directories, span files. It is relative to the
// directory the benchmark is run from (the checkout root) and is ignored by
// git.
const buildDir = ".bench_build"

// buildDaemon compiles cmd/memoserverd from the tree the benchmark runs in.
func buildDaemon() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	out, err := filepath.Abs(filepath.Join(buildDir, "memoserverd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, "repro/cmd/memoserverd")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build memoserverd: %v\n%s", err, msg)
	}
	return out, nil
}

// daemon is one memoserverd process.
type daemon struct {
	host      string
	addr      string // wire address, from the ready file
	debug     string // debug (/metrics) address, from the ready file
	dataDir   string // empty for memory-only workloads
	readyFile string
	logPath   string
	bin       string
	peers     map[string]string
	cmd       *exec.Cmd
	logf      *os.File
}

// start launches the daemon in its own process group and waits for the
// ready file. The first start binds :0; a restart reuses the address the
// first start got, so peers and clients re-dial the same place.
func (d *daemon) start() error {
	if err := os.Remove(d.readyFile); err != nil && !os.IsNotExist(err) {
		return err
	}
	listen, debug := "127.0.0.1:0", "127.0.0.1:0"
	if d.addr != "" {
		listen, debug = d.addr, d.debug
	}
	// Everything not named here stays at the daemon's default: -link-retries
	// 2 (so dedup tokens are live), default batching, default snapshot
	// cadence, tracing off.
	args := []string{"-host", d.host, "-listen", listen, "-debug-addr", debug, "-ready-file", d.readyFile}
	if d.dataDir != "" {
		args = append(args, "-data-dir", d.dataDir, "-fsync", daemonSync.String())
	}
	for h, a := range d.peers {
		args = append(args, "-peer", h+"="+a)
	}
	lf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(d.bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return err
	}
	d.cmd, d.logf = cmd, lf
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(d.readyFile); err == nil {
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			d.addr = lines[0]
			for _, l := range lines[1:] {
				if rest, ok := strings.CutPrefix(l, "debug "); ok {
					d.debug = rest
				}
			}
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return fmt.Errorf("daemon %s: ready file never appeared\n%s", d.host, logTail(d.logPath, 40))
}

// kill SIGKILLs the daemon's process group and reaps it.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	_ = d.cmd.Wait()
	d.logf.Close()
	d.cmd = nil
}

// term asks for a clean shutdown and requires exit status 0.
func (d *daemon) term() error {
	if d.cmd == nil {
		return nil
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		d.logf.Close()
		d.cmd = nil
		if err != nil {
			return fmt.Errorf("daemon %s: unclean exit: %v\n%s", d.host, err, logTail(d.logPath, 40))
		}
		return nil
	case <-time.After(15 * time.Second):
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		<-done
		d.logf.Close()
		d.cmd = nil
		return fmt.Errorf("daemon %s: SIGTERM drain hung\n%s", d.host, logTail(d.logPath, 40))
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cluster is the live two-node system under test.
type cluster struct {
	dir   string
	file  *adf.File
	place *placement.Map
	nodes [2]*daemon
}

// benchPlacement builds the placement map the daemons will build from the
// same ADF, so the loadgen and the servers agree on where every key lives.
func benchPlacement() (*adf.File, *placement.Map, error) {
	f, err := adf.Parse(benchADF)
	if err != nil {
		return nil, nil, err
	}
	if err := adf.Validate(f); err != nil {
		return nil, nil, err
	}
	g, err := f.Graph()
	if err != nil {
		return nil, nil, err
	}
	pm, err := placement.New(f, routing.Build(g), placement.Options{})
	if err != nil {
		return nil, nil, err
	}
	return f, pm, nil
}

// bootCluster starts both daemons under dir and registers the application
// with each. Every workload enters at a, so only a needs a peer mapping, and
// b boots first so that its address is known when a starts.
func bootCluster(bin, dir string, durable bool) (*cluster, error) {
	f, pm, err := benchPlacement()
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, file: f, place: pm}
	for i, h := range hostNames {
		d := &daemon{
			host:      h,
			readyFile: filepath.Join(dir, h+".ready"),
			logPath:   filepath.Join(dir, h+".log"),
			bin:       bin,
			peers:     map[string]string{},
		}
		if durable {
			d.dataDir = filepath.Join(dir, "data-"+h)
		}
		c.nodes[i] = d
	}
	if err := c.nodes[1].start(); err != nil {
		return nil, err
	}
	c.nodes[0].peers["b"] = c.nodes[1].addr
	if err := c.nodes[0].start(); err != nil {
		c.abort()
		return nil, err
	}
	for i := range c.nodes {
		if err := c.register(i); err != nil {
			c.abort()
			return nil, err
		}
	}
	return c, nil
}

// rawClient dials node i's wire endpoint with the client defaults the memo
// CLI uses: heartbeats on, two transparent retries (so every put and take
// carries a dedup token).
func (c *cluster) rawClient(i int) (*memoserver.Client, error) {
	tcp := transport.NewTCP()
	addr := c.nodes[i].addr
	dial := func(_, _ string) (transport.Conn, error) { return tcp.Dial(addr) }
	return memoserver.DialClientResilient(dial, hostNames[i], c.file.App, rpc.Policy{},
		rpc.Resilience{Heartbeat: rpc.DefaultHeartbeat, Retries: 2})
}

func (c *cluster) register(i int) error {
	cl, err := c.rawClient(i)
	if err != nil {
		return err
	}
	defer cl.Close()
	return cl.Register(benchADF)
}

// handle is one client-library connection: the Memo handle and the
// memoserver.Client under it, which the traced path drives directly.
type handle struct {
	m      *core.Memo
	client *memoserver.Client
}

// memo opens a client-library handle entering the cluster at node i.
func (c *cluster) memo(i int) (handle, error) {
	client, err := c.rawClient(i)
	if err != nil {
		return handle{}, err
	}
	m, err := core.New(core.Config{
		App:      c.file.App,
		Host:     hostNames[i],
		Domain:   transferable.Domain64,
		Registry: symbol.NewRegistry(),
		Place:    c.place,
		Client:   client,
	})
	if err != nil {
		client.Close()
		return handle{}, err
	}
	return handle{m, client}, nil
}

// restart SIGTERMs node i, starts it again from its data directory and
// re-registers the application, which is what replays WAL and snapshot.
func (c *cluster) restart(i int) error {
	if err := c.nodes[i].term(); err != nil {
		return err
	}
	if err := c.nodes[i].start(); err != nil {
		return err
	}
	return c.register(i)
}

// shutdown SIGTERMs both daemons and reports the first unclean exit.
func (c *cluster) shutdown() error {
	var first error
	for _, d := range c.nodes {
		if err := d.term(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// abort hard-kills whatever is still running.
func (c *cluster) abort() {
	for _, d := range c.nodes {
		if d != nil {
			d.kill()
		}
	}
}

// logs quotes the tail of both daemon logs, for failure reports.
func (c *cluster) logs() string {
	var b strings.Builder
	for _, d := range c.nodes {
		fmt.Fprintf(&b, "--- %s.log ---\n%s\n", d.host, logTail(d.logPath, 30))
	}
	return b.String()
}

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

// metricSet is one scrape of a daemon's /metrics: every sample summed over
// its label sets, keyed by series name. Histogram buckets are dropped;
// their _sum and _count series are kept.
type metricSet map[string]float64

// parseMetrics reads the Prometheus text format the obs package serves.
func parseMetrics(r io.Reader) (metricSet, error) {
	out := metricSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
		}
		out[name] += f
	}
	return out, sc.Err()
}

// delta is after minus before, series by series.
func (after metricSet) delta(before metricSet) metricSet {
	out := metricSet{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add sums two scrapes (the two daemons).
func (m metricSet) add(o metricSet) metricSet {
	out := metricSet{}
	for k, v := range m {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func (d *daemon) scrape() (metricSet, error) {
	resp, err := scrapeClient.Get("http://" + d.debug + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// scrapeAll scrapes both daemons and returns the sum of their series.
func (c *cluster) scrapeAll() (metricSet, error) {
	sum := metricSet{}
	for _, d := range c.nodes {
		m, err := d.scrape()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", d.host, err)
		}
		sum = sum.add(m)
	}
	return sum, nil
}

// procSample is what /proc says a process has used so far.
type procSample struct {
	userMS, sysMS float64
	ctxSwitches   float64
	rssPeakMB     float64
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc.
const clockTick = 100

// parseProcStat extracts utime and stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name may hold spaces and parentheses,
// so fields are counted from the last ')'.
func parseProcStat(line string) (userMS, sysMS float64, err error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(line[i+1:])
	if len(f) < 13 {
		return 0, 0, errors.New("proc stat: short line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, errors.New("proc stat: bad cpu fields")
	}
	return ut * 1000 / clockTick, st * 1000 / clockTick, nil
}

// procCPU reads only the CPU fields, cheaply; it is what the slice sampler
// calls on the slice boundaries.
func procCPU(pid int) (userMS, sysMS float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	return parseProcStat(string(data))
}

// procFull adds context switches and peak RSS. Context switches are kept per
// thread, so they are summed over /proc/<pid>/task/*/status; threads that
// have exited take their counts with them, which the Go runtime's stable
// thread pool makes a small error.
func procFull(pid int) (procSample, error) {
	var s procSample
	var err error
	if s.userMS, s.sysMS, err = procCPU(pid); err != nil {
		return s, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	s.rssPeakMB = statusField(status, "VmHWM") / 1024
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		s.ctxSwitches += statusField(data, "voluntary_ctxt_switches") + statusField(data, "nonvoluntary_ctxt_switches")
	}
	return s, nil
}

// statusField returns the first number on the named line of a
// /proc/.../status file, or 0 when the line is absent.
func statusField(status []byte, name string) float64 {
	for _, line := range bytes.Split(status, []byte("\n")) {
		k, v, ok := strings.Cut(string(line), ":")
		if !ok || k != name {
			continue
		}
		if f := strings.Fields(v); len(f) > 0 {
			n, _ := strconv.ParseFloat(f[0], 64)
			return n
		}
	}
	return 0
}

// environment describes the machine and build a result came from.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	WorkDir    string `json:"work_dir"`
	WorkFS     string `json:"work_fs"`
}

func describeEnvironment(workDir string) environment {
	e := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		WorkDir:    workDir,
		WorkFS:     fsType(workDir),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	return e
}

// fsType names the filesystem a path is on, from its statfs magic number.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
