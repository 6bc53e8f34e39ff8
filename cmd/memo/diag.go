// Diagnostic mode: cluster-wide observability from the shell.
//
//	memo top   -nodes a=127.0.0.1:6060,b=127.0.0.1:6061        # refreshing cluster table
//	memo top   -ready-files 'a.ready,b.ready' -once            # one-shot, addrs from ready files
//	memo trace -nodes ... 0x1f3a8c22d9e47b01                   # one trace's merged timeline
//
// Both subcommands scrape the daemons' debug endpoints (-debug-addr):
// `top` renders one row per node from /metrics (read back with
// obs.ParseText; peer-link health is its per-peer node_link_* series), and
// `trace` fetches one trace ID's samples
// (sampled and slow requests alike) from every node's /tracez and merges
// them into a single time-ordered span timeline — each node holds only the
// spans it made, so this join is the only place the whole request is seen,
// and the merge dedups the sampled/slow overlap. Node addresses come from
// -nodes (name=addr pairs) or from daemon ready files, whose `debug <addr>`
// line memoserverd writes when started with both -ready-file and
// -debug-addr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// nodeTarget is one scrape target: a display name and a debug address.
type nodeTarget struct {
	Name string
	Addr string
}

// parseTargets builds the scrape list from -nodes ("name=addr" or bare
// "addr", comma-separated) and -ready-files (comma-separated paths; the
// name is the file's base name minus its extension, the address the
// `debug <addr>` line the daemons write).
func parseTargets(nodes, readyFiles string) ([]nodeTarget, error) {
	var out []nodeTarget
	for _, part := range strings.Split(nodes, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, addr, ok := strings.Cut(part, "="); ok {
			out = append(out, nodeTarget{Name: name, Addr: addr})
		} else {
			out = append(out, nodeTarget{Name: part, Addr: part})
		}
	}
	for _, path := range strings.Split(readyFiles, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		addr := ""
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "debug "); ok {
				addr = strings.TrimSpace(rest)
			}
		}
		if addr == "" {
			return nil, fmt.Errorf("%s: no `debug <addr>` line (daemon started without -debug-addr?)", path)
		}
		name := filepath.Base(path)
		name = strings.TrimSuffix(name, filepath.Ext(name))
		out = append(out, nodeTarget{Name: name, Addr: addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no targets: give -nodes or -ready-files")
	}
	return out, nil
}

// scrape fetches one debug endpoint and hands its body to read. The short
// timeout keeps a dead node from stalling the whole table.
func scrape(addr, path string, read func(io.Reader) error) error {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return read(resp.Body)
}

// linkSummary condenses a node's per-peer node_link_* samples into
// "dials/faults" over all its peers plus the first failing peer's dial
// error, or "-" when the node holds no peer link.
func linkSummary(samples []obs.Sample) string {
	if obs.Sum(samples, "node_peer_links") == 0 {
		return "-"
	}
	out := fmt.Sprintf("%d/%d", int64(obs.Sum(samples, "node_link_dials_total")), int64(obs.Sum(samples, "node_link_faults_total")))
	for _, smp := range samples {
		if smp.Name == "node_link_error" && smp.Value != 0 {
			return out + " (" + smp.Label("peer") + ": " + smp.Label("error") + ")"
		}
	}
	return out
}

// runTop renders the cluster table: one row per node, refreshed every
// -interval until interrupted (or exactly once with -once).
func runTop(args []string) int {
	fs := flag.NewFlagSet("memo top", flag.ContinueOnError)
	nodes := fs.String("nodes", "", "comma-separated name=debug-addr (or bare debug-addr) scrape targets")
	ready := fs.String("ready-files", "", "comma-separated daemon ready files naming their debug endpoints")
	once := fs.Bool("once", false, "render one table and exit")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	targets, err := parseTargets(*nodes, *ready)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memo top:", err)
		return exitUsage
	}
	for {
		renderTop(os.Stdout, targets)
		if *once {
			return exitOK
		}
		time.Sleep(*interval)
		fmt.Println()
	}
}

func renderTop(w io.Writer, targets []nodeTarget) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tUP\tLOCAL\tFWD\tRETRY\tRPC\tMEMOS\tHIDDEN\tSLOW\tTRACES\tLINKS d/f")
	for _, t := range targets {
		var samples []obs.Sample
		err := scrape(t.Addr, "/metrics", func(r io.Reader) (err error) {
			samples, err = obs.ParseText(r)
			return err
		})
		if err != nil {
			fmt.Fprintf(tw, "%s\tdown\t-\t-\t-\t-\t-\t-\t-\t-\t%v\n", t.Name, err)
			continue
		}
		sum := func(name string) int64 { return int64(obs.Sum(samples, name)) }
		fmt.Fprintf(tw, "%s\tyes\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			t.Name,
			sum("node_local_ops_total"),
			sum("node_forwards_total"),
			sum("node_retried_total"),
			sum("rpc_server_requests_total"),
			sum("folder_memos"),
			sum("folder_delayed_hidden"),
			sum("slow_requests_total"),
			sum("trace_samples_total"),
			linkSummary(samples))
	}
	tw.Flush()
}

// runTrace merges one trace's spans from every node's /tracez ring into a
// time-ordered timeline. Exit code 1 when no node holds the trace.
func runTrace(args []string) int {
	fs := flag.NewFlagSet("memo trace", flag.ContinueOnError)
	nodes := fs.String("nodes", "", "comma-separated name=debug-addr (or bare debug-addr) scrape targets")
	ready := fs.String("ready-files", "", "comma-separated daemon ready files naming their debug endpoints")
	jsonOut := fs.Bool("json", false, "print the merged spans as one JSON object")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	id := fs.Arg(0)
	if id == "" {
		fmt.Fprintln(os.Stderr, "memo trace: usage: memo trace [flags] <trace-id>")
		return exitUsage
	}
	if _, err := strconv.ParseUint(id, 0, 64); err != nil {
		fmt.Fprintf(os.Stderr, "memo trace: bad trace id %q: %v\n", id, err)
		return exitUsage
	}
	targets, err := parseTargets(*nodes, *ready)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memo trace:", err)
		return exitUsage
	}

	spans, scraped := mergeTrace(targets, id)
	if scraped == 0 {
		fmt.Fprintln(os.Stderr, "memo trace: no node answered")
		return exitErr
	}
	if len(spans) == 0 {
		fmt.Fprintf(os.Stderr, "memo trace: trace %s not found on %d node(s) (ring evicted, or neither sampled nor slow)\n", id, scraped)
		return exitErr
	}

	if *jsonOut {
		b, err := json.Marshal(struct {
			Trace string      `json:"trace"`
			Spans []wire.Span `json:"spans"`
		}{id, spans})
		if err != nil {
			fmt.Fprintln(os.Stderr, "memo trace: encode:", err)
			return exitErr
		}
		fmt.Println(string(b))
		return exitOK
	}

	nodeSet := map[string]bool{}
	for _, sp := range spans {
		nodeSet[sp.Node] = true
	}
	fmt.Printf("trace %s: %d spans across %d node(s)\n", id, len(spans), len(nodeSet))
	base := spans[0].Start
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "START\tDUR\tWAIT\tNODE\tLAYER\tOP\tFOLDER\tHOP")
	for _, sp := range spans {
		wait := "-"
		if sp.Wait > 0 {
			wait = time.Duration(sp.Wait).String()
		}
		fmt.Fprintf(tw, "+%v\t%v\t%s\t%s\t%s\t%s\t%d\t%d\n",
			time.Duration(sp.Start-base), time.Duration(sp.Dur), wait,
			sp.Node, sp.Layer, sp.Op, sp.Folder, sp.Hop)
	}
	tw.Flush()
	return exitOK
}

// mergeTrace is the one join of a trace: every node records only the spans
// it made, so the timeline is the union of the targets' /tracez samples for
// id, in time order. A request that was both sampled and slow sits in both
// of a node's rings, so the merge dedups the sampled/slow overlap. scraped
// counts the targets that answered.
func mergeTrace(targets []nodeTarget, id string) (spans []wire.Span, scraped int) {
	seen := map[wire.Span]bool{}
	for _, t := range targets {
		var body obs.TracezBody
		err := scrape(t.Addr, "/tracez?trace="+id, func(r io.Reader) error { return json.NewDecoder(r).Decode(&body) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "memo trace: node %s: %v\n", t.Name, err)
			continue
		}
		scraped++
		for _, ts := range append(body.Recent, body.Slow...) {
			for _, sp := range ts.Spans {
				if !seen[sp] {
					seen[sp] = true
					spans = append(spans, sp)
				}
			}
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Hop < spans[j].Hop
	})
	return spans, scraped
}
