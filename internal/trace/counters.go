package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
)

// The tracer owns every counter in the kernel: one atomic.Uint64 cell per
// CounterKey. Keys known when the tracer is built are fixed cells inside
// it (the LSM decision matrix and the Cells), so a fresh tracer allocates
// nothing to count. Run-time keys (netfilter rules, fault sites) live in
// one map, whose producers take a handle once instead of a lookup per
// event.

// Hook numbers the LSM hooks, the first axis of the decision matrix.
type Hook uint8

// LSM hooks.
const (
	HookMount Hook = iota
	HookUmount
	HookSocketCreate
	HookBind
	HookIoctl
	HookSetuid
	HookSetgid
	HookExec
	HookFileOpen
	HookTaskSyscall
	NumHooks
)

var hookNames = [NumHooks]string{
	"MountCheck", "UmountCheck", "SocketCreate", "BindCheck", "IoctlCheck",
	"SetuidCheck", "SetgidCheck", "ExecCheck", "FileOpen", "TaskSyscall",
}

// String names the hook as the decision counters and histograms do.
func (h Hook) String() string { return hookNames[h] }

// decisionNames names the lsm.Decision values, the matrix's third axis.
var decisionNames = [...]string{"no-opinion", "grant", "defer-to-exec", "deny"}

// NumDecisions is the number of lsm.Decision values the matrix counts.
const NumDecisions = len(decisionNames)

// DecisionName names an lsm.Decision value ("invalid" when out of range).
func DecisionName(d int) string {
	if d < 0 || d >= NumDecisions {
		return "invalid"
	}
	return decisionNames[d]
}

// MaxModules is the number of module slots in the decision matrix. The
// largest chain the simulator builds has five distinct modules (apparmor,
// protego, seccomp, seccomp-audit, seccomp-record).
const MaxModules = 8

// Cell numbers the fixed cells outside the decision matrix: first the
// fast-path counters, in name order (FastpathCounters), then the auth
// and Protego policy outcomes (Counters; core.Stats reads the latter).
type Cell uint8

// Fixed cells.
const (
	SyscallAllow  Cell = iota // TaskSyscall evaluations where no module had an opinion
	MountIdxHit               // MountCheck decisions resolved via core's compiled index
	NFIdxFastpath             // verdicts reached after netfilter's index pruned a rule
	AuthPassword              // each auth mechanism's ok checks, then its failed ones
	AuthPasswordFail
	AuthRecency
	AuthRecencyFail
	AuthGroup
	AuthGroupFail
	MountGrant
	MountDenial
	BindGrant
	BindDenial
	SetuidGrant
	SetuidDefer
	SetuidDenial
	RawSockGrant
	RouteGrant
	RouteDenial
	FileGrant
	FileDenial
	numCells
)

// numFast counts the fast-path cells, which come first.
const numFast = NFIdxFastpath + 1

var cellKeys = [numCells]CounterKey{
	SyscallAllow:     {Module: "lsm.syscall.allow"},
	MountIdxHit:      {Module: "mountidx.hit"},
	NFIdxFastpath:    {Module: "nfidx.fastpath"},
	AuthPassword:     {"auth:password", "password", "ok"},
	AuthPasswordFail: {"auth:password", "password", "fail"},
	AuthRecency:      {"auth:recency", "recency", "ok"},
	AuthRecencyFail:  {"auth:recency", "recency", "fail"},
	AuthGroup:        {"auth:group", "group", "ok"},
	AuthGroupFail:    {"auth:group", "group", "fail"},
	MountGrant:       {"core:mount", "protego", "grant"},
	MountDenial:      {"core:mount", "protego", "deny"},
	BindGrant:        {"core:bind", "protego", "grant"},
	BindDenial:       {"core:bind", "protego", "deny"},
	SetuidGrant:      {"core:setuid", "protego", "grant"},
	SetuidDefer:      {"core:setuid", "protego", "defer-to-exec"},
	SetuidDenial:     {"core:setuid", "protego", "deny"},
	RawSockGrant:     {"core:rawsock", "protego", "grant"},
	RouteGrant:       {"core:route", "protego", "grant"},
	RouteDenial:      {"core:route", "protego", "deny"},
	FileGrant:        {"core:file", "protego", "grant"},
	FileDenial:       {"core:file", "protego", "deny"},
}

// ModuleSlot returns the decision-matrix slot of the named LSM module,
// giving a new name the next free slot; modules with the same name share
// a slot. It panics, naming the module, when every slot is taken.
func (tr *Tracer) ModuleSlot(name string) int {
	if tr == nil {
		return 0
	}
	tr.ctrMu.Lock()
	defer tr.ctrMu.Unlock()
	if i := slices.Index(tr.modules[:tr.nModules], name); i >= 0 {
		return i
	}
	if tr.nModules == MaxModules {
		panic(fmt.Sprintf("trace: no decision-matrix slot left for LSM module %q (all %d taken)", name, MaxModules))
	}
	tr.modules[tr.nModules] = name
	tr.nModules++
	return tr.nModules - 1
}

// CountHook bumps the matrix cell of one module's decision on one hook;
// slot comes from ModuleSlot and decision is an lsm.Decision value.
func (tr *Tracer) CountHook(h Hook, slot, decision int) {
	if tr != nil {
		tr.lsm[h][slot][decision].Add(1)
	}
}

// Count bumps a fixed cell.
func (tr *Tracer) Count(c Cell) {
	if tr != nil {
		tr.cells[c].Add(1)
	}
}

// Load reads a fixed cell.
func (tr *Tracer) Load(c Cell) uint64 {
	if tr == nil {
		return 0
	}
	return tr.cells[c].Load()
}

// Counter returns the handle of a run-time counter key, creating the
// cell on first use. Take the handle when the key comes into being and
// bump it per event.
func (tr *Tracer) Counter(key CounterKey) *atomic.Uint64 {
	if tr == nil {
		return nil
	}
	tr.ctrMu.Lock()
	defer tr.ctrMu.Unlock()
	c := tr.named[key]
	if c == nil {
		c = new(atomic.Uint64)
		tr.named[key] = c
	}
	return c
}

// Counters returns the value of every decision counter that has counted
// something: matrix cells, auth and policy outcomes, and run-time keys.
func (tr *Tracer) Counters() map[CounterKey]uint64 {
	out := make(map[CounterKey]uint64)
	put := func(key CounterKey, c *atomic.Uint64) {
		if n := c.Load(); n > 0 {
			out[key] = n
		}
	}
	tr.ctrMu.Lock()
	for key, c := range tr.named {
		put(key, c)
	}
	modules := tr.modules[:tr.nModules]
	tr.ctrMu.Unlock()
	for h := range tr.lsm {
		for s, module := range modules {
			for d := range tr.lsm[h][s] {
				put(CounterKey{hookNames[h], module, decisionNames[d]}, &tr.lsm[h][s][d])
			}
		}
	}
	for c := numFast; c < numCells; c++ {
		put(cellKeys[c], &tr.cells[c])
	}
	return out
}

// SortedKeys returns the keys of a Counters result ordered by hook,
// module and decision.
func SortedKeys(ctrs map[CounterKey]uint64) []CounterKey {
	keys := make([]CounterKey, 0, len(ctrs))
	for k := range ctrs {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b CounterKey) int {
		return cmp.Or(cmp.Compare(a.Hook, b.Hook), cmp.Compare(a.Module, b.Module), cmp.Compare(a.Decision, b.Decision))
	})
	return keys
}

// FastpathCounters reads every fast-path counter.
func (tr *Tracer) FastpathCounters() map[string]uint64 {
	if tr == nil {
		return nil
	}
	out := make(map[string]uint64, numFast)
	for c := range numFast {
		out[cellKeys[c].Module] = tr.cells[c].Load()
	}
	return out
}
