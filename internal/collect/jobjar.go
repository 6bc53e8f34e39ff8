package collect

import (
	"repro/internal/core"
	"repro/internal/symbol"
	"repro/internal/transferable"
)

// JobJar is the §6.2.4 work-distribution structure: an unordered queue whose
// memos are tasks. "Whenever a process creates more work to do, it drops
// memos in the job jar." A jar may be paired with per-process jars for work
// that must run on a specific process (e.g. file I/O); GetWork then drains
// either with get_alt.
type JobJar struct {
	m      *core.Memo
	common symbol.Key
	local  symbol.Key // zero key when the process has no private jar
}

// NewJobJar opens the application's common job jar under a well-known name.
func NewJobJar(m *core.Memo, name string) *JobJar {
	return &JobJar{m: m, common: m.NamedKey(name)}
}

// WithLocal attaches this process's private jar (named by process id).
func (j *JobJar) WithLocal(procID uint32) *JobJar {
	return &JobJar{
		m:      j.m,
		common: j.common,
		local:  symbol.K(j.common.S, append(append([]uint32{}, j.common.X...), procID)...),
	}
}

// CommonKey returns the common jar's folder key.
func (j *JobJar) CommonKey() symbol.Key { return j.common }

// Add drops a task into the common jar.
func (j *JobJar) Add(task transferable.Value) error { return j.m.Put(j.common, task) }

// AddLocal drops a task into a specific process's private jar.
func (j *JobJar) AddLocal(procID uint32, task transferable.Value) error {
	k := symbol.K(j.common.S, append(append([]uint32{}, j.common.X...), procID)...)
	return j.m.Put(k, task)
}

// GetWork takes a task from the private jar or the common jar, whichever
// has one, blocking until some task is available (get_alt per the paper).
func (j *JobJar) GetWork() (transferable.Value, error) {
	return j.GetWorkCancel(nil)
}

// GetWorkCancel is GetWork with cancellation.
func (j *JobJar) GetWorkCancel(cancel <-chan struct{}) (transferable.Value, error) {
	if j.local.S == symbol.None {
		return j.m.GetCancel(j.common, cancel)
	}
	_, v, err := j.m.GetAltCancel(cancel, j.local, j.common)
	return v, err
}

// TryGetWork polls both jars without blocking (get_alt_skip).
func (j *JobJar) TryGetWork() (transferable.Value, bool, error) {
	if j.local.S == symbol.None {
		return j.m.GetSkip(j.common)
	}
	_, v, ok, err := j.m.GetAltSkip(j.local, j.common)
	return v, ok, err
}
