package lsm

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/trace"
)

// scriptedModule returns fixed decisions for chain-combination tests.
type scriptedModule struct {
	Base
	name     string
	mount    Decision
	mountErr error
	setuid   Decision
	groups   []int
	update   *CredUpdate
	execErr  error

	// mountCalls counts MountCheck invocations (short-circuit tests).
	mountCalls int
}

func (m *scriptedModule) Name() string { return m.name }
func (m *scriptedModule) MountCheck(Task, *MountRequest) (Decision, error) {
	m.mountCalls++
	return m.mount, m.mountErr
}
func (m *scriptedModule) SetuidCheck(Task, int) (Decision, error) { return m.setuid, nil }
func (m *scriptedModule) ExecCheck(Task, *ExecRequest) (*CredUpdate, error) {
	return m.update, m.execErr
}
func (m *scriptedModule) ResolveGroups(int) ([]int, bool) {
	if m.groups == nil {
		return nil, false
	}
	return m.groups, true
}

// nullTask satisfies Task for chain tests.
type nullTask struct {
	NullFilterSlot
	blobs map[string]any
}

func (n *nullTask) PID() int              { return 1 }
func (n *nullTask) UID() int              { return 1000 }
func (n *nullTask) EUID() int             { return 1000 }
func (n *nullTask) GID() int              { return 100 }
func (n *nullTask) EGID() int             { return 100 }
func (n *nullTask) Groups() []int         { return nil }
func (n *nullTask) Capable(caps.Cap) bool { return false }
func (n *nullTask) BinaryPath() string    { return "/bin/x" }
func (n *nullTask) SecurityBlob(k string) any {
	return n.blobs[k]
}
func (n *nullTask) SetSecurityBlob(k string, v any) {
	if n.blobs == nil {
		n.blobs = map[string]any{}
	}
	n.blobs[k] = v
}

func TestDecisionString(t *testing.T) {
	cases := map[Decision]string{
		NoOpinion: "no-opinion", Grant: "grant", DeferToExec: "defer-to-exec",
		Deny: "deny", Decision(99): "invalid",
	}
	for d, want := range cases {
		if d.String() != want {
			t.Errorf("%d: %q", d, d.String())
		}
	}
}

func TestChainDenyWins(t *testing.T) {
	c := NewChain(
		&scriptedModule{name: "a", mount: Grant},
		&scriptedModule{name: "b", mount: Deny, mountErr: errno.EACCES},
	)
	dec, err := c.MountCheck(&nullTask{}, &MountRequest{})
	if dec != Deny || err != errno.EACCES {
		t.Fatalf("dec=%v err=%v", dec, err)
	}
}

func TestChainGrantBeatsNoOpinion(t *testing.T) {
	c := NewChain(
		&scriptedModule{name: "a", mount: NoOpinion},
		&scriptedModule{name: "b", mount: Grant},
	)
	dec, err := c.MountCheck(&nullTask{}, &MountRequest{})
	if dec != Grant || err != nil {
		t.Fatalf("dec=%v err=%v", dec, err)
	}
}

func TestChainDeferBeatsGrant(t *testing.T) {
	c := NewChain(
		&scriptedModule{name: "a", setuid: Grant},
		&scriptedModule{name: "b", setuid: DeferToExec},
	)
	dec, err := c.SetuidCheck(&nullTask{}, 0)
	if dec != DeferToExec || err != nil {
		t.Fatalf("dec=%v err=%v", dec, err)
	}
}

func TestChainEmptyIsNoOpinion(t *testing.T) {
	c := NewChain()
	dec, err := c.MountCheck(&nullTask{}, &MountRequest{})
	if dec != NoOpinion || err != nil {
		t.Fatalf("dec=%v err=%v", dec, err)
	}
}

func TestChainExecFirstUpdateWins(t *testing.T) {
	uid1, uid2 := 1, 2
	c := NewChain(
		&scriptedModule{name: "a", update: &CredUpdate{UID: &uid1}},
		&scriptedModule{name: "b", update: &CredUpdate{UID: &uid2}},
	)
	u, err := c.ExecCheck(&nullTask{}, &ExecRequest{})
	if err != nil || u == nil || *u.UID != 1 {
		t.Fatalf("update: %+v %v", u, err)
	}
}

func TestChainExecVeto(t *testing.T) {
	c := NewChain(
		&scriptedModule{name: "a"},
		&scriptedModule{name: "b", execErr: errno.EPERM},
	)
	if _, err := c.ExecCheck(&nullTask{}, &ExecRequest{}); !errors.Is(err, errno.EPERM) {
		t.Fatalf("err=%v", err)
	}
}

func TestChainResolveGroups(t *testing.T) {
	c := NewChain(
		&scriptedModule{name: "a"},                      // no resolver data
		&scriptedModule{name: "b", groups: []int{7, 9}}, // resolves
	)
	groups, ok := c.ResolveGroups(1000)
	if !ok || len(groups) != 2 {
		t.Fatalf("groups: %v %v", groups, ok)
	}
	empty := NewChain(&scriptedModule{name: "a"})
	if _, ok := empty.ResolveGroups(1000); ok {
		t.Fatal("resolved from nothing")
	}
}

func TestBaseDefaults(t *testing.T) {
	var b Base
	task := &nullTask{}
	if d, err := b.MountCheck(task, nil); d != NoOpinion || err != nil {
		t.Fatal("MountCheck default")
	}
	if d, _ := b.UmountCheck(task, nil); d != NoOpinion {
		t.Fatal("UmountCheck default")
	}
	if d, _ := b.SocketCreate(task, nil); d != NoOpinion {
		t.Fatal("SocketCreate default")
	}
	if d, _ := b.BindCheck(task, nil); d != NoOpinion {
		t.Fatal("BindCheck default")
	}
	if d, _ := b.IoctlCheck(task, nil); d != NoOpinion {
		t.Fatal("IoctlCheck default")
	}
	if d, _ := b.SetuidCheck(task, 0); d != NoOpinion {
		t.Fatal("SetuidCheck default")
	}
	if d, _ := b.SetgidCheck(task, 0); d != NoOpinion {
		t.Fatal("SetgidCheck default")
	}
	if u, err := b.ExecCheck(task, nil); u != nil || err != nil {
		t.Fatal("ExecCheck default")
	}
	if d, _ := b.FileOpen(task, nil); d != NoOpinion {
		t.Fatal("FileOpen default")
	}
}

func TestCombinePrecedence(t *testing.T) {
	order := []Decision{NoOpinion, Grant, DeferToExec, Deny}
	for i, weaker := range order {
		for _, stronger := range order[i:] {
			if got := combine(weaker, stronger); got != stronger {
				t.Errorf("combine(%v, %v) = %v, want %v", weaker, stronger, got, stronger)
			}
			if got := combine(stronger, weaker); got != stronger {
				t.Errorf("combine(%v, %v) = %v, want %v", stronger, weaker, got, stronger)
			}
		}
	}
}

func TestChainDenyShortCircuits(t *testing.T) {
	tail := &scriptedModule{name: "tail", mount: Grant}
	c := NewChain(
		&scriptedModule{name: "denier", mount: Deny},
		tail,
	)
	dec, err := c.MountCheck(&nullTask{}, &MountRequest{})
	if dec != Deny {
		t.Fatalf("dec=%v err=%v", dec, err)
	}
	if tail.mountCalls != 0 {
		t.Fatalf("module after denier consulted %d times, want 0", tail.mountCalls)
	}
}

func TestChainFirstErrorShortCircuits(t *testing.T) {
	tail := &scriptedModule{name: "tail", mount: Grant}
	c := NewChain(
		// An error with a permissive decision still aborts the chain as
		// Deny: a module that cannot evaluate must fail closed.
		&scriptedModule{name: "broken", mount: Grant, mountErr: errno.EIO},
		tail,
	)
	dec, err := c.MountCheck(&nullTask{}, &MountRequest{})
	if dec != Deny || !errors.Is(err, errno.EIO) {
		t.Fatalf("dec=%v err=%v, want Deny/EIO", dec, err)
	}
	if tail.mountCalls != 0 {
		t.Fatalf("module after error consulted %d times, want 0", tail.mountCalls)
	}
}

func TestChainTracerWinnerAndCounters(t *testing.T) {
	tr := trace.New(64)
	c := NewChain(
		&scriptedModule{name: "quiet", mount: NoOpinion},
		&scriptedModule{name: "granter", mount: Grant},
	)
	c.SetTracer(tr)
	if dec, _ := c.MountCheck(&nullTask{}, &MountRequest{}); dec != Grant {
		t.Fatalf("dec=%v", dec)
	}

	evs := tr.SnapshotKind(trace.KindLSMDecision)
	if len(evs) != 1 {
		t.Fatalf("decision events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Name != "MountCheck" || ev.Module != "granter" || ev.Decision != "grant" {
		t.Fatalf("event = %+v", ev)
	}
	if ev.PID != 1 || ev.UID != 1000 {
		t.Fatalf("event pid/uid = %d/%d", ev.PID, ev.UID)
	}

	ctrs := tr.Counters()
	if ctrs[trace.CounterKey{Hook: "MountCheck", Module: "quiet", Decision: "no-opinion"}] != 1 {
		t.Fatalf("quiet counter missing: %v", ctrs)
	}
	if ctrs[trace.CounterKey{Hook: "MountCheck", Module: "granter", Decision: "grant"}] != 1 {
		t.Fatalf("granter counter missing: %v", ctrs)
	}
	if tr.HookHistogram("MountCheck").Count != 1 {
		t.Fatalf("hook histogram count = %d", tr.HookHistogram("MountCheck").Count)
	}
}

func TestChainTracerDenierIsWinner(t *testing.T) {
	tr := trace.New(64)
	c := NewChain(
		&scriptedModule{name: "granter", mount: Grant},
		&scriptedModule{name: "denier", mount: Deny, mountErr: errno.EACCES},
	)
	c.SetTracer(tr)
	c.MountCheck(&nullTask{}, &MountRequest{})
	evs := tr.SnapshotKind(trace.KindLSMDecision)
	if len(evs) != 1 || evs[0].Module != "denier" || evs[0].Decision != "deny" {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Err == "" {
		t.Fatal("deny event should carry the error")
	}
}

func TestChainTracerExecCheck(t *testing.T) {
	tr := trace.New(64)
	uid := 0
	c := NewChain(
		&scriptedModule{name: "quiet"},
		&scriptedModule{name: "delegator", update: &CredUpdate{UID: &uid}},
	)
	c.SetTracer(tr)
	if _, err := c.ExecCheck(&nullTask{}, &ExecRequest{}); err != nil {
		t.Fatal(err)
	}
	evs := tr.SnapshotKind(trace.KindLSMDecision)
	if len(evs) != 1 || evs[0].Name != "ExecCheck" || evs[0].Module != "delegator" || evs[0].Decision != "grant" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestChainRegister(t *testing.T) {
	c := NewChain()
	c.Register(&scriptedModule{name: "late", mount: Grant})
	if len(c.members) != 1 {
		t.Fatal("register failed")
	}
	dec, _ := c.MountCheck(&nullTask{}, &MountRequest{})
	if dec != Grant {
		t.Fatal("late module ignored")
	}
}

// mediatorModule is a syscall-layer module whose object hook would deny.
type mediatorModule struct{ scriptedModule }

func (*mediatorModule) MediatesSyscall() {}
func (*mediatorModule) TaskSyscall(Task, int, string) (Decision, error) {
	return Deny, nil
}

// TestChainMediatorHooks: a SyscallMediator is consulted on TaskSyscall
// and ExecCheck only; the object hooks never reach it, not even as a
// decision counter.
func TestChainMediatorHooks(t *testing.T) {
	med := &mediatorModule{scriptedModule{name: "filter", mount: Deny, execErr: errno.EPERM}}
	c := NewChain(&scriptedModule{name: "plain", mount: Grant}, med)
	tr := trace.New(64)
	c.SetTracer(tr)
	tk := &nullTask{}
	if dec, _ := c.MountCheck(tk, &MountRequest{}); dec != Grant || med.mountCalls != 0 {
		t.Fatalf("MountCheck = %v after %d mediator calls, want Grant and 0", dec, med.mountCalls)
	}
	for k := range tr.Counters() {
		if k.Module == "filter" {
			t.Fatalf("object hook counted the mediator: %+v", k)
		}
	}
	if dec, _ := c.TaskSyscall(tk, 1, "open"); dec != Deny {
		t.Fatalf("TaskSyscall = %v, want the mediator's Deny", dec)
	}
	if _, err := c.ExecCheck(tk, &ExecRequest{}); err != errno.EPERM {
		t.Fatalf("ExecCheck err = %v, want the mediator's veto", err)
	}
}

// TestChainMatrixRegistration: modules registered before and after
// SetTracer both count, modules sharing a name share their cells, and a
// chain without a tracer counts nothing.
func TestChainMatrixRegistration(t *testing.T) {
	tr := trace.New(64)
	c := NewChain(&scriptedModule{name: "early", mount: Grant}, &scriptedModule{name: "twin"})
	c.SetTracer(tr)
	c.Register(&scriptedModule{name: "late"})
	c.Register(&scriptedModule{name: "twin"})
	c.MountCheck(&nullTask{}, &MountRequest{})
	want := map[trace.CounterKey]uint64{
		{Hook: "MountCheck", Module: "early", Decision: "grant"}:     1,
		{Hook: "MountCheck", Module: "twin", Decision: "no-opinion"}: 2,
		{Hook: "MountCheck", Module: "late", Decision: "no-opinion"}: 1,
	}
	if got := tr.Counters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counters = %v, want %v", got, want)
	}

	c.SetTracer(nil)
	c.MountCheck(&nullTask{}, &MountRequest{})
	c.TaskSyscall(&nullTask{}, 1, "open")
	if got := tr.Counters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("untraced chain counted: %v, want %v", got, want)
	}
	if n := tr.FastpathCounters()["lsm.syscall.allow"]; n != 0 {
		t.Fatalf("untraced chain counted lsm.syscall.allow = %d", n)
	}
}

// TestChainMatrixFull: registering one distinct module name more than the
// decision matrix holds panics at Register, naming the module.
func TestChainMatrixFull(t *testing.T) {
	c := NewChain()
	c.SetTracer(trace.New(64))
	for i := 0; i < trace.MaxModules; i++ {
		c.Register(&scriptedModule{name: fmt.Sprint("m", i)})
	}
	c.Register(&scriptedModule{name: "m0"}) // a repeated name takes no slot
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"overflow"`) {
			t.Fatalf("recover() = %v, want a panic naming the module", r)
		}
	}()
	c.Register(&scriptedModule{name: "overflow"})
}
