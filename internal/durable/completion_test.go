package durable_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/folder"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/wire"
)

// answers is a folder.Answerer that records every answer.
type answers struct {
	mu   sync.Mutex
	resp []*wire.Response
}

func (a *answers) Hold(wire.Canceler, uint64) {}

func (a *answers) Answer(resp *wire.Response) {
	a.mu.Lock()
	a.resp = append(a.resp, resp)
	a.mu.Unlock()
}

func (a *answers) got() []*wire.Response {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*wire.Response(nil), a.resp...)
}

// await waits until a has n answers, and fails on more.
func (a *answers) await(t *testing.T, what string, n int) []*wire.Response {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(a.got()) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d answers, want %d", what, len(a.got()), n)
		}
	}
	got := a.got()
	if len(got) != n {
		t.Fatalf("%s: %d answers, want %d", what, len(got), n)
	}
	return got
}

// serveLater starts q, which must wait for the log rather than be answered
// at once.
func serveLater(t *testing.T, srv *folder.Server, q *wire.Request) *answers {
	t.Helper()
	a := new(answers)
	if resp := srv.Serve(q, a); resp != nil {
		t.Fatalf("Serve(%v) answered before its record's fsync: %+v", q.Op, resp)
	}
	return a
}

func openServer(t *testing.T) *folder.Server {
	t.Helper()
	srv, err := folder.OpenServer(0, "a", t.TempDir(), durable.Config{Sync: durable.SyncNever, SnapshotEvery: -1}, threadcache.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestPendingCompletionsOnDeadLog: with the syncer held back, a put and a
// take Serve started on a durable store wait for the fsync that covers their
// records, unanswered. Crash answers both with an error, never OK, before
// it waits for the write it must let land, and puts the taken memo back in
// its folder.
func TestPendingCompletionsOnDeadLog(t *testing.T) {
	srv := openServer(t)
	taken := symbol.K(1)
	if err := srv.Store().PutToken(taken, []byte("kept"), 0); err != nil {
		t.Fatal(err)
	}
	release := srv.Store().Log().HoldSyncer()
	put := serveLater(t, srv, &wire.Request{Op: wire.OpPut, Key: symbol.K(2), Payload: []byte("doomed")})
	get := serveLater(t, srv, &wire.Request{Op: wire.OpGet, Key: taken})
	time.Sleep(10 * time.Millisecond)
	if n := len(put.got()) + len(get.got()); n != 0 {
		release()
		t.Fatalf("%d answers left before the fsync that covers their records", n)
	}
	crashed := make(chan struct{})
	go func() {
		srv.Crash()
		close(crashed)
	}()
	for what, a := range map[string]*answers{"put": put, "get": get} {
		if resp := a.await(t, what, 1)[0]; resp.Status != wire.StatusErr {
			release()
			t.Fatalf("%s on a crashed log answered %+v, want an error", what, resp)
		}
	}
	// get_copy logs nothing, so even a dead store answers it at once: the
	// memo the failed take removed is back.
	if resp := srv.Serve(&wire.Request{Op: wire.OpGetCopy, Key: taken}, new(answers)); resp == nil || string(resp.Payload) != "kept" {
		release()
		t.Fatalf("after the crash, get_copy of the taken memo's folder: %+v, want \"kept\" at once", resp)
	}
	release()
	<-crashed
}

// TestDedupPutWaitsForItsOriginal: a put whose token an earlier put applied
// is a repeat, acknowledged without depositing — but only once the fsync
// that covers its original's record has run. With the syncer held back,
// neither is answered; released, both are, OK, and the folder holds one
// memo.
func TestDedupPutWaitsForItsOriginal(t *testing.T) {
	srv := openServer(t)
	defer srv.Close()
	k := symbol.K(3)
	release := srv.Store().Log().HoldSyncer()
	put := func() *wire.Request { return &wire.Request{Op: wire.OpPut, Key: k, Payload: []byte("once"), Token: 77} }
	original := serveLater(t, srv, put())
	repeat := serveLater(t, srv, put())
	time.Sleep(10 * time.Millisecond)
	if n := len(original.got()) + len(repeat.got()); n != 0 {
		release()
		t.Fatalf("%d answers left before the original's fsync", n)
	}
	release()
	for what, a := range map[string]*answers{"original": original, "repeat": repeat} {
		if resp := a.await(t, what, 1)[0]; resp.Status != wire.StatusOK {
			t.Fatalf("%s: %+v, want OK", what, resp)
		}
	}
	if v, ok, err := srv.Store().GetSkip(k); err != nil || !ok || string(v) != "once" {
		t.Fatalf("the folder: %q %v %v, want the one memo", v, ok, err)
	}
	if v, ok, err := srv.Store().GetSkip(k); err != nil || ok {
		t.Fatalf("a second memo: %q %v %v, want none", v, ok, err)
	}
}
