package memoserver

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/folder"
	"repro/internal/symbol"
	"repro/internal/wire"
)

// local builds a request for folder server 0, which host a owns, the way a
// client of tn's application would address it.
func (tn *testNet) local(op wire.Op, k symbol.Key, payload []byte) *wire.Request {
	q := req(op, 0, k, payload)
	q.App = tn.file.App
	return q
}

// awaitWaiters polls until fs has exactly want waiter registrations.
func awaitWaiters(t *testing.T, fs *folder.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for folderSeries(fs, "folder_waiters") != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked, want %d", folderSeries(fs, "folder_waiters"), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParkedLocalGetHoldsOneGoroutine: a blocking get for a local folder
// parks on the thread that dispatched it, so N parked gets pin N goroutines —
// here the N callers themselves — and N puts hand each its own value.
func TestParkedLocalGetHoldsOneGoroutine(t *testing.T) {
	const n = 200
	// Goroutines the runtime or an idle thread cache may start or retire
	// while the gets park; the second thread per request this test rules out
	// would show as n more, not a handful.
	const slack = 8
	tn := bootNet(t, twoHostADF, Config{})
	node := tn.nodes["a"]
	fs, _ := node.LocalFolderServer(tn.file.App, 0)

	before := runtime.NumGoroutine()
	resps := make([]*wire.Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = node.Dispatch(tn.local(wire.OpGet, symbol.K(symbol.Symbol(i)), nil), never)
		}(i)
	}
	awaitWaiters(t, fs, n)
	if rose := runtime.NumGoroutine() - before; rose > n+slack {
		t.Errorf("%d parked gets hold %d goroutines, want one each", n, rose)
	}

	for i := 0; i < n; i++ {
		resp := node.Dispatch(tn.local(wire.OpPut, symbol.K(symbol.Symbol(i)), []byte{byte(i)}), never)
		if resp.Status != wire.StatusOK {
			t.Fatalf("put %d: %+v", i, resp)
		}
	}
	wg.Wait()
	for i, resp := range resps {
		if resp.Status != wire.StatusOK || len(resp.Payload) != 1 || resp.Payload[0] != byte(i) {
			t.Errorf("get %d woke with %+v, want payload [%d]", i, resp, byte(i))
		}
	}
	if w, m := folderSeries(fs, "folder_waiters"), folderSeries(fs, "folder_memos"); w != 0 || m != 0 {
		t.Errorf("%d waiters and %d memos left, want none", w, m)
	}
}

// TestCanceledLocalGetLeavesNothingBehind: cancelling a parked blocking verb
// ends its Dispatch with StatusCanceled, and by the time Dispatch has returned
// nothing of the request is left in the store — no waiter, no folder kept
// alive, no handler that could still consume a memo put afterwards.
func TestCanceledLocalGetLeavesNothingBehind(t *testing.T) {
	k := symbol.K(7)
	for _, op := range []wire.Op{wire.OpGet, wire.OpGetCopy, wire.OpAltTake, wire.OpWatch} {
		t.Run(op.String(), func(t *testing.T) {
			tn := bootNet(t, twoHostADF, Config{})
			node := tn.nodes["a"]
			fs, _ := node.LocalFolderServer(tn.file.App, 0)
			cancel := make(chan struct{})
			type outcome struct {
				resp             *wire.Response
				waiters, folders int
			}
			done := make(chan outcome, 1)
			go func() {
				q := tn.local(op, k, nil)
				q.Keys = []symbol.Key{k}
				resp := node.Dispatch(q, cancel)
				// Read on this goroutine, before anything else can run: what
				// Dispatch left behind at the moment it returned.
				done <- outcome{resp, folderSeries(fs, "folder_waiters"), folderSeries(fs, "folder_folders")}
			}()
			awaitWaiters(t, fs, 1)
			close(cancel)
			select {
			case o := <-done:
				if o.resp.Status != wire.StatusCanceled {
					t.Fatalf("canceled %v answered %+v, want StatusCanceled", op, o.resp)
				}
				if o.waiters != 0 || o.folders != 0 {
					t.Fatalf("canceled %v returned with %d waiters and %d folders in the store", op, o.waiters, o.folders)
				}
			case <-time.After(100 * time.Millisecond):
				t.Fatalf("canceled %v still parked after 100ms", op)
			}

			put := node.Dispatch(tn.local(wire.OpPut, k, []byte("kept")), never)
			if put.Status != wire.StatusOK {
				t.Fatalf("put after cancel: %+v", put)
			}
			got := node.Dispatch(tn.local(wire.OpGetSkip, k, nil), never)
			if got.Status != wire.StatusOK || string(got.Payload) != "kept" {
				t.Fatalf("get_skip after cancel: %+v, want the memo put after it", got)
			}
		})
	}
}

// TestLocalDispatchRoundAllocBudget holds a local put+get round through
// Node.Dispatch to its measured allocation count — what the store and the
// two responses cost, nothing for the node in between. A second thread per
// request adds a closure, a reply channel and a pinned request to every get.
func TestLocalDispatchRoundAllocBudget(t *testing.T) {
	const budget = 6
	tn := bootNet(t, twoHostADF, Config{})
	node := tn.nodes["a"]
	put := tn.local(wire.OpPut, symbol.K(11), []byte("round"))
	get := tn.local(wire.OpGet, symbol.K(11), nil)
	allocs := testing.AllocsPerRun(200, func() {
		if resp := node.Dispatch(put, never); resp.Status != wire.StatusOK {
			t.Fatalf("put: %+v", resp)
		}
		if resp := node.Dispatch(get, never); resp.Status != wire.StatusOK {
			t.Fatalf("get: %+v", resp)
		}
	})
	if allocs > budget {
		t.Errorf("local put+get round: %.1f allocs, budget %d", allocs, budget)
	}
}
