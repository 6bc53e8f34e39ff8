package e2e

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/memoserver"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transferable"
	"repro/internal/transport"
)

// simTarget is the chaos cluster in-process: internal/cluster over
// transport.Sim, durable, with the daemon flags' snapshot threshold and link
// timings. Sim cuts both directions of a host pair where a daemon's proxy
// cuts one.
type simTarget struct{ c *cluster.Cluster }

func bootSim(t *testing.T) simTarget {
	t.Helper()
	c, err := cluster.Boot(chaosFile, cluster.Options{
		Resilience: rpc.Resilience{
			Heartbeat: 250 * time.Millisecond,
			Redial:    transport.Backoff{Min: 20 * time.Millisecond},
			Retries:   2,
		},
		DataDir: t.TempDir(),
		Durable: durable.Config{SnapshotEvery: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return simTarget{c}
}

func (s simTarget) Memo(i int) (*core.Memo, error) { return s.c.NewMemo(hostNames[i]) }

// cli runs op on a handle of its own, as the memo binary, a separate
// process, does, and reports as the binary does: a failure is a message.
func (s simTarget) cli(i int, name string, op func(m *core.Memo) (string, bool, error)) (CLIResult, error) {
	v, ok := "", false
	m, err := s.Memo(i)
	if err == nil {
		v, ok, err = op(m)
		m.Close()
	}
	if err != nil {
		res := CLIResult{Op: name, Error: err.Error(), Code: 1}
		if tok := core.TokenOf(err); tok != 0 {
			res.Token = fmt.Sprintf("%#x", tok)
		}
		return res, nil
	}
	return CLIResult{OK: true, Op: name, Value: v, Empty: !ok}, nil
}

func (s simTarget) PutCLI(i int, key symbol.Key, val string) (CLIResult, error) {
	return s.cli(i, "put", func(m *core.Memo) (string, bool, error) {
		return "", true, m.Put(key, transferable.String(val))
	})
}

func (s simTarget) GetSkipCLI(i int, key symbol.Key) (CLIResult, error) {
	return s.cli(i, "get-skip", func(m *core.Memo) (string, bool, error) {
		v, ok, err := m.GetSkip(key)
		return asStr(v), ok, err
	})
}

func (s simTarget) Ping(i int) error {
	cl, err := memoserver.DialClientResilient(s.c.Sim.DialFrom, hostNames[i], chaosFile.App, rpc.Policy{}, rpc.Resilience{})
	if err != nil {
		return err
	}
	defer cl.Close()
	return cl.Ping()
}

// Kill crashes node i and restarts it on the same data directory at once:
// a crashed store, like a killed process, has stopped writing into it.
func (s simTarget) Kill(i int) error {
	if err := s.c.CrashNode(hostNames[i]); err != nil {
		return err
	}
	_, err := s.c.RestartNode(hostNames[i])
	return err
}

func (s simTarget) Sever(pair int) { s.c.Sim.Sever(pairHosts(pair)) }
func (s simTarget) Heal(pair int)  { s.c.Sim.Restore(pairHosts(pair)) }

// Metrics renders node i's registry as its /metrics would.
func (s simTarget) Metrics(i int) ([]byte, error) {
	n, _ := s.c.Node(hostNames[i])
	reg := obs.NewRegistry()
	n.RegisterMetrics(reg)
	var b bytes.Buffer
	err := reg.WriteProm(&b)
	return b.Bytes(), err
}

// severWeights is the sever row's mix: no kill, so every node keeps its
// process and the owner-local rule covers every node; links are cut often
// enough that library traffic, watches most of all, keeps crossing them.
var severWeights = Weights{
	ActPut: 30, ActPutCLI: 2, ActPutDelayed: 4, ActGet: 10, ActGetSkip: 14,
	ActGetSkipCLI: 2, ActAltTake: 6, ActAltSkip: 6, ActWatch: 12, ActPump: 2,
	ActSever: 5, ActHeal: 7,
}

// crashWeights is the crash row's mix: puts crowd the async pool, so each
// kill lands on deposits in flight whose retries the restarted node must
// deduplicate from its recovered log.
var crashWeights = Weights{
	ActPut: 60, ActPutCLI: 2, ActPutDelayed: 4, ActGet: 8, ActGetSkip: 8,
	ActGetSkipCLI: 2, ActAltTake: 4, ActAltSkip: 4, ActWatch: 2, ActKill: 6,
}

// TestChaosSeverInProcess is the sever row: link cuts under load, and at
// least one watch entered away from its key's owner returns a value.
func TestChaosSeverInProcess(t *testing.T) {
	out, err := RunChaos(bootSim(t), 7, GenActions(7, 300, severWeights), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if out.RemoteCopies == 0 {
		t.Error("no remote watch returned a value")
	}
}

// TestRecoveryCrashInProcess is the crash row: nodes crash with deposits in
// flight and restart from their data directories; a retried put the
// recovered log does not deduplicate is a double-consume.
func TestRecoveryCrashInProcess(t *testing.T) {
	out, err := RunChaos(bootSim(t), 7, GenActions(7, 300, crashWeights), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dedup hits over every incarnation: %d puts, %d takes", out.dupPuts, out.dupTakes)
}
