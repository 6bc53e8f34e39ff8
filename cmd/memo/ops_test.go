package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/adf"
	"repro/internal/core"
	"repro/internal/memoserver"
	"repro/internal/obs"
	"repro/internal/symbol"
	"repro/internal/transferable"
	"repro/internal/transport"
)

func TestParseKeys(t *testing.T) {
	ks, err := parseKeys("7, 9/1.2 ,11")
	if err != nil {
		t.Fatal(err)
	}
	want := []symbol.Key{symbol.K(7), symbol.K(9, 1, 2), symbol.K(11)}
	if len(ks) != len(want) {
		t.Fatalf("parsed %d keys, want %d", len(ks), len(want))
	}
	for i := range ks {
		if !ks[i].Equal(want[i]) {
			t.Errorf("key %d = %v, want %v", i, ks[i], want[i])
		}
	}
	if _, err := parseKeys(""); err == nil {
		t.Error("empty -keys accepted")
	}
	if _, err := parseKeys("7,notakey"); err == nil {
		t.Error("malformed key accepted")
	}
}

func TestValueString(t *testing.T) {
	if got := valueString(transferable.String("hi")); got != "hi" {
		t.Errorf("string value rendered %q", got)
	}
	if got := valueString(transferable.Int64(42)); got != "42" {
		t.Errorf("int value rendered %q", got)
	}
}

// TestResultJSONShape pins the -json contract the e2e harness parses.
func TestResultJSONShape(t *testing.T) {
	b, err := json.Marshal(result{OK: true, Op: "get-skip", Key: "7", Empty: true})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"ok":true,"op":"get-skip","key":"7","empty":true}`
	if string(b) != want {
		t.Errorf("json line %s, want %s", b, want)
	}
}

// loopback lets in-process memo servers listen on kernel-assigned TCP
// ports, as cmd/memoserverd's mapped transport does with -listen :0, and
// dial each other by logical host, as its -peer mappings do. Every server
// starts before the first dial.
type loopback struct {
	*transport.TCP
	addrs map[string]string // logical host → listening address
}

func newLoopback() *loopback {
	return &loopback{TCP: transport.NewTCP(), addrs: map[string]string{}}
}

func (l *loopback) Listen(addr string) (transport.Listener, error) {
	ln, err := l.TCP.Listen("127.0.0.1:0")
	if err == nil {
		l.addrs[transport.HostOf(addr)] = ln.Addr()
	}
	return ln, err
}

func (l *loopback) Dial(addr string) (transport.Conn, error) {
	return l.TCP.Dial(l.addrs[transport.HostOf(addr)])
}

// TestGetTimeoutNeverEatsTheMemo: a `memo get -timeout` whose timer fires
// while the get is in flight either prints the value (exit 0, the memo
// consumed) or exits 3 with the memo still in its folder — never exit 3 with
// the memo gone.
func TestGetTimeoutNeverEatsTheMemo(t *testing.T) {
	const adfText = "APP cli\nHOSTS\na 1 sun4 1\nFOLDERS\n0 a\nPROCESSES\n0 boss a\n"
	adfPath := filepath.Join(t.TempDir(), "cli.adf")
	if err := os.WriteFile(adfPath, []byte(adfText), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := adf.Parse(adfText)
	if err != nil {
		t.Fatal(err)
	}
	lb := newLoopback()
	node := memoserver.NewWithDialer("a", lb, memoserver.Config{})
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	if err := node.RegisterApp(f); err != nil {
		t.Fatal(err)
	}
	fs, _ := node.LocalFolderServer("cli", 0)
	// memos reads fs's folder_memos back from its exposition.
	memos := func() int {
		reg := obs.NewRegistry()
		reg.RegisterCollector(fs.Collect)
		var b bytes.Buffer
		_ = reg.WriteProm(&b) // writing into a buffer cannot fail
		samples, err := obs.ParseText(&b)
		if err != nil {
			t.Fatal(err)
		}
		return int(obs.Sum(samples, "folder_memos"))
	}

	stdout := os.Stdout
	os.Stdout, err = os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Stdout.Close(); os.Stdout = stdout })

	base := []string{"-adf", adfPath, "-addr", lb.addrs["a"], "-host", "a", "-key", "7"}
	fired := 0
	for i := 0; i < 60; i++ {
		if code := runOp("put", append(base, "-value", "kept")); code != exitOK {
			t.Fatalf("round %d: put exited %d", i, code)
		}
		timeout := time.Duration(1+i%12*25) * time.Microsecond
		code := runOp("get", append(base, "-timeout", timeout.String()))
		left := memos()
		switch {
		case code == exitOK && left == 0:
		case code == exitTimeout && left == 1:
			fired++
			if code := runOp("get-skip", base); code != exitOK || memos() != 0 {
				t.Fatalf("round %d: draining get-skip exited %d", i, code)
			}
		default:
			t.Fatalf("round %d: get -timeout %v exited %d with %d memos in the folder", i, timeout, code, left)
		}
	}
	t.Logf("%d of 60 timeouts ended the get with the memo kept", fired)

	// With nothing to get, the timeout ends the wait with exit 3 and leaves
	// no parked get behind to eat a later put.
	if code := runOp("get", append(base, "-timeout", "5ms")); code != exitTimeout {
		t.Fatalf("get -timeout on an empty folder exited %d, want %d", code, exitTimeout)
	}
	if code := runOp("put", append(base, "-value", "later")); code != exitOK || memos() != 1 {
		t.Fatalf("put after a timed-out get exited %d with %d memos in the folder", code, memos())
	}
}

// TestReportNamesTheToken: the one failure tail reports a failed op's dedup
// token in its -json line and picks the exit code by what the token's error
// wraps: canceled having consumed nothing is 3, anything else 1.
func TestReportNamesTheToken(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	t.Cleanup(func() { os.Stdout = stdout; out.Close() })

	o := &opFlags{jsonOut: true}
	canceled := &core.TokenError{Token: 0xbeef, Err: core.ErrCanceled}
	if code := report(o, result{Op: "get", Key: "7", Value: "stale"}, canceled); code != exitTimeout {
		t.Fatalf("canceled tokened get exited %d, want %d", code, exitTimeout)
	}
	if code := report(o, result{Op: "put", Key: "7"}, &core.TokenError{Token: 0xcafe, Err: errors.New("link reset")}); code != exitErr {
		t.Fatalf("failed tokened put exited %d, want %d", code, exitErr)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"ok":false,"op":"get","key":"7","error":"memo: operation canceled","token":"0xbeef"}` + "\n" +
		`{"ok":false,"op":"put","key":"7","error":"link reset","token":"0xcafe"}` + "\n"
	if string(b) != want {
		t.Fatalf("json lines\n%s\nwant\n%s", b, want)
	}
}
