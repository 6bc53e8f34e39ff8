// Op mode: single-shot subcommands speaking to a running memoserverd over
// TCP. The launcher in main.go boots a whole simulated cluster; op mode is
// the black-box face of a real deployment — every Memo Language primitive
// reachable from a shell, with stable exit codes and an optional
// machine-readable result line, so test harnesses (test/e2e) and operators
// can drive and observe a live cluster without linking the client library.
//
//	memo put       -adf app.adf -addr 127.0.0.1:7440 -host a -key 7 -value hi
//	memo get-skip  -adf app.adf -addr 127.0.0.1:7440 -host a -key 7 -json
//	memo alt-take  -adf app.adf -addr 127.0.0.1:7440 -host a -keys 7,9/1.2
//
// Keys are numeric canonical form ("S" or "S/x0.x1"); there is no named
// spelling. A folder a program names is still reachable: its symbol is the
// name's hash (symbol.Named), the same number in every process.
//
// Exit codes: 0 the operation completed (including an empty get-skip);
// 1 the operation or connection failed; 2 usage error; 3 the -timeout
// expired and the blocking operation was canceled having consumed nothing (a
// get that had already taken its memo when the timer fired prints it, exit
// 0). A failed put or take reports the dedup token its client stamped on it
// (with -retries > 0), the name its servers know it by.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/adf"
	"repro/internal/core"
	"repro/internal/memoserver"
	"repro/internal/placement"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transferable"
	"repro/internal/transport"
)

const (
	exitOK      = 0
	exitErr     = 1
	exitUsage   = 2
	exitTimeout = 3
)

// opNames is the dispatch set main() consults: anything else falls through
// to the legacy launcher, so "memo app.adf" keeps working.
var opNames = map[string]bool{
	"put": true, "put-delayed": true,
	"get": true, "get-copy": true, "get-skip": true,
	"alt-take": true, "alt-skip": true, "watch": true,
	"register": true, "ping": true, "pump": true, "fetch": true,
}

// opFlags is the flag surface every op subcommand shares.
type opFlags struct {
	fs      *flag.FlagSet
	adfPath string
	addr    string
	host    string
	timeout time.Duration
	jsonOut bool
	retries int
	trace   bool
	// lastTrace reports the trace ID the client stamped (set by connect, 0
	// until a request ran); emit folds it into the result when -trace is on.
	lastTrace func() uint64
}

func newOpFlags(op string) *opFlags {
	o := &opFlags{fs: flag.NewFlagSet("memo "+op, flag.ContinueOnError)}
	o.fs.StringVar(&o.adfPath, "adf", "", "application description file (for the app name and folder placement)")
	o.fs.StringVar(&o.addr, "addr", "", "TCP address of the memo server to speak to")
	o.fs.StringVar(&o.host, "host", "", "logical host name of that memo server (as in the ADF)")
	o.fs.DurationVar(&o.timeout, "timeout", 0, "cancel a blocking operation after this long (0 = wait forever); exit code 3 if that left the memo in its folder")
	o.fs.BoolVar(&o.jsonOut, "json", false, "print a single JSON result line on stdout")
	o.fs.IntVar(&o.retries, "retries", 2, "transparent retries of the request after a link failure (dedup tokens keep them exactly-once)")
	o.fs.BoolVar(&o.trace, "trace", false, "mark the request sampled: every hop collects spans into its /tracez ring, and the result reports the trace ID for `memo trace`")
	return o
}

// result is the -json line. Every subcommand emits exactly one.
type result struct {
	OK    bool   `json:"ok"`
	Op    string `json:"op"`
	Key   string `json:"key,omitempty"`
	Value string `json:"value,omitempty"`
	Empty bool   `json:"empty,omitempty"`
	Error string `json:"error,omitempty"`
	Token string `json:"token,omitempty"`
	Trace string `json:"trace,omitempty"`
}

// runOp executes one subcommand and returns the process exit code.
func runOp(op string, args []string) int {
	o := newOpFlags(op)
	var (
		key, dest, keys, value string
		targetHost, dir        string
	)
	switch op {
	case "put":
		o.fs.StringVar(&key, "key", "", "folder key (canonical numeric form)")
		o.fs.StringVar(&value, "value", "", "string value to deposit")
	case "put-delayed":
		o.fs.StringVar(&key, "key", "", "trigger folder key")
		o.fs.StringVar(&dest, "dest", "", "destination folder key revealed on trigger")
		o.fs.StringVar(&value, "value", "", "string value to deposit")
	case "get", "get-copy", "get-skip", "watch":
		o.fs.StringVar(&key, "key", "", "folder key (canonical numeric form)")
	case "alt-take", "alt-skip":
		o.fs.StringVar(&keys, "keys", "", "comma-separated folder keys")
	case "pump", "fetch":
		o.fs.StringVar(&targetHost, "target-host", "", "host whose program folder to address")
		o.fs.StringVar(&dir, "dir", "", "PROCESSES directory name of the program")
		if op == "pump" {
			o.fs.StringVar(&value, "value", "", "program image to ship")
		}
	}
	if err := o.fs.Parse(args); err != nil {
		return exitUsage
	}
	if o.adfPath == "" || o.addr == "" || o.host == "" {
		fmt.Fprintf(os.Stderr, "memo %s: -adf, -addr, and -host are required\n", op)
		return exitUsage
	}

	m, client, err := o.connect()
	if err != nil {
		return report(o, result{Op: op}, err)
	}
	defer m.Close()

	// One cancel channel serves every blocking call; the timer closes it, and
	// ErrCanceled — the store's word that the call consumed nothing — becomes
	// the dedicated timeout exit code (report). Any other error after the
	// timer fired (a dead link, say) leaves the outcome unknown and exits 1.
	var cancel chan struct{}
	if o.timeout > 0 {
		cancel = make(chan struct{})
		t := time.AfterFunc(o.timeout, func() { close(cancel) })
		defer t.Stop()
	}

	// Each op fills in r — the key (or dir) it names is reported on failure
	// too — and leaves its error in err for the one tail below.
	r := result{Op: op}
	switch op {
	case "put", "put-delayed":
		k, perr := parseKey(key)
		if perr != nil {
			return usage(op, perr)
		}
		r.Key, r.Value = key, value
		if op == "put" {
			err = m.Put(k, transferable.String(value))
			break
		}
		d, perr := parseKey(dest)
		if perr != nil {
			return usage(op, perr)
		}
		err = m.PutDelayed(k, d, transferable.String(value))

	case "get", "get-copy", "watch", "get-skip":
		k, perr := parseKey(key)
		if perr != nil {
			return usage(op, perr)
		}
		r.Key = key
		var v transferable.Value
		ok := true
		switch op {
		case "get":
			v, err = m.GetCancel(k, cancel)
		case "get-skip":
			v, ok, err = m.GetSkip(k)
		default:
			// watch = get-copy: observe without consuming.
			v, err = m.GetCopyCancel(k, cancel)
		}
		if r.Empty = !ok; ok && err == nil {
			r.Value = valueString(v)
		}

	case "alt-take", "alt-skip":
		ks, perr := parseKeys(keys)
		if perr != nil {
			return usage(op, perr)
		}
		var k symbol.Key
		var v transferable.Value
		ok := true
		if op == "alt-skip" {
			k, v, ok, err = m.GetAltSkip(ks...)
		} else {
			k, v, err = m.GetAltCancel(cancel, ks...)
		}
		if r.Empty = !ok; ok && err == nil {
			r.Key, r.Value = k.Canon(), valueString(v)
		}

	case "register":
		var src []byte
		if src, err = os.ReadFile(o.adfPath); err == nil {
			err = client.Register(string(src))
		}

	case "ping":
		err = client.Ping()

	case "pump":
		r.Key = dir
		err = m.PumpProgram(targetHost, dir, []byte(value))

	case "fetch":
		r.Key = dir
		var blob []byte
		blob, err = m.FetchProgram(targetHost, dir)
		r.Value = string(blob)

	default:
		fmt.Fprintf(os.Stderr, "memo: unknown op %q\n", op)
		return exitUsage
	}
	return report(o, r, err)
}

// report is the one tail of every op: it emits r, completed, or — when err
// is set — the op's failure, naming the op's dedup token when it has one,
// with the exit code the failure earns: exitTimeout for a canceled blocking
// op, which consumed nothing, exitErr for anything else.
func report(o *opFlags, r result, err error) int {
	if err == nil {
		r.OK = true
		return emit(o, r, exitOK)
	}
	r = result{Op: r.Op, Key: r.Key, Error: err.Error()}
	if tok := core.TokenOf(err); tok != 0 {
		r.Token = fmt.Sprintf("%#x", tok)
	}
	if errors.Is(err, core.ErrCanceled) {
		return emit(o, r, exitTimeout)
	}
	return emit(o, r, exitErr)
}

// connect opens the handle cluster.NewMemo would, over real TCP: core.Open
// with the ADF's λ = 0 placement — the one memoserverd registers apps with —
// so a key maps to the same folder server here as inside every daemon.
func (o *opFlags) connect() (*core.Memo, *memoserver.Client, error) {
	src, err := os.ReadFile(o.adfPath)
	if err != nil {
		return nil, nil, err
	}
	f, err := adf.Parse(string(src))
	if err != nil {
		return nil, nil, err
	}
	if err := adf.Validate(f); err != nil {
		return nil, nil, err
	}
	place, err := placement.New(f, nil, placement.Options{})
	if err != nil {
		return nil, nil, err
	}

	tcp := transport.NewTCP()
	// The client library addresses the daemon by its logical name; a CLI
	// process is always pointed at one concrete TCP endpoint, so the dialer
	// ignores the logical address.
	dial := func(srcHost, addr string) (transport.Conn, error) { return tcp.Dial(o.addr) }
	client, err := memoserver.DialClientResilient(dial, o.host, f.App, rpc.Policy{},
		rpc.Resilience{Heartbeat: rpc.DefaultHeartbeat, Retries: o.retries})
	if err != nil {
		return nil, nil, err
	}
	if o.trace {
		client.EnableSampling()
	}
	o.lastTrace = client.LastTraceID
	m, err := core.Open(f, o.host, place, client)
	if err != nil {
		return nil, nil, err
	}
	return m, client, nil
}

// parseKey accepts the canonical numeric key form: "S" or "S/x0.x1".
func parseKey(s string) (symbol.Key, error) {
	if s == "" {
		return symbol.Key{}, fmt.Errorf("missing -key")
	}
	return symbol.ParseCanon(s)
}

// parseKeys splits a comma-separated list of canonical keys.
func parseKeys(s string) ([]symbol.Key, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -keys")
	}
	parts := strings.Split(s, ",")
	ks := make([]symbol.Key, len(parts))
	for i, p := range parts {
		k, err := symbol.ParseCanon(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		ks[i] = k
	}
	return ks, nil
}

// valueString renders a fetched transferable for display: strings verbatim,
// everything else through its Go representation.
func valueString(v transferable.Value) string {
	if s, ok := transferable.AsString(v); ok {
		return s
	}
	return fmt.Sprint(transferable.ToGo(v))
}

// emit prints the op's one result line and passes the exit code through.
func emit(o *opFlags, r result, code int) int {
	if o.trace && o.lastTrace != nil {
		if id := o.lastTrace(); id != 0 {
			r.Trace = fmt.Sprintf("%#x", id)
		}
	}
	if o.jsonOut {
		b, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memo: encode result:", err)
			return exitErr
		}
		fmt.Println(string(b))
		return code
	}
	switch {
	case r.Token != "":
		fmt.Fprintf(os.Stderr, "memo %s: %s (token %s)\n", r.Op, r.Error, r.Token)
	case r.Error != "":
		fmt.Fprintf(os.Stderr, "memo %s: %s\n", r.Op, r.Error)
	case r.Empty:
		fmt.Printf("%s %s: empty\n", r.Op, r.Key)
	case r.Value != "":
		fmt.Printf("%s %s: %s\n", r.Op, r.Key, r.Value)
	default:
		fmt.Printf("%s %s: ok\n", r.Op, r.Key)
	}
	if r.Trace != "" {
		fmt.Printf("trace %s (fetch with: memo trace %s)\n", r.Trace, r.Trace)
	}
	return code
}

func usage(op string, err error) int {
	fmt.Fprintf(os.Stderr, "memo %s: %v\n", op, err)
	return exitUsage
}
