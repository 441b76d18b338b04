// Package lsm implements a Linux Security Module-style hook framework for
// the simulated kernel (Wright et al., USENIX Security 2002). The kernel
// invokes every registered module at each mediation point. Unlike stock
// Linux hooks, which are purely restrictive, these hooks carry the Protego
// kernel change (the paper's 415 added lines): at call sites that were
// previously hard-coded capability checks, the kernel now consults the LSM,
// and a module may *grant* an operation the base policy would deny — the
// mount whitelist, bind table, and delegation rules all work this way.
// Modules may equally *deny* operations the base policy would allow, which
// is how the AppArmor baseline (internal/apparmor) behaves.
package lsm

import (
	"time"

	"protego/internal/caps"
	"protego/internal/trace"
)

// Task is the view of a kernel task exposed to security modules. It is
// implemented by kernel.Task; lsm deliberately does not import the kernel
// package (the dependency points the other way, as in Linux).
type Task interface {
	// PID returns the task's process id.
	PID() int
	// UID returns the real user id.
	UID() int
	// EUID returns the effective user id.
	EUID() int
	// GID returns the real group id.
	GID() int
	// EGID returns the effective group id.
	EGID() int
	// Groups returns the supplementary group ids.
	Groups() []int
	// Capable reports whether the task's effective capability set
	// contains c.
	Capable(c caps.Cap) bool
	// BinaryPath returns the path of the binary the task is executing,
	// used by object-based policies that key on (binary, uid) pairs.
	BinaryPath() string
	// SecurityBlob returns module-private state attached to the task
	// under key, or nil. This models the security pointer in task_struct
	// that the Protego kernel uses to track authentication recency and
	// pending setuid-on-exec state.
	SecurityBlob(key string) any
	// SetSecurityBlob attaches module-private state to the task.
	SetSecurityBlob(key string, v any)
	// SyscallFilter returns the task's dedicated syscall-entry slot and
	// whether it has ever been populated. Unlike the keyed blob map the
	// slot is read lock-free — it sits on every syscall's hot path, the
	// way task_struct keeps its seccomp state in a dedicated field rather
	// than behind the security pointer. At most one syscall-mediating
	// module may own the slot; a stored nil is a meaningful value
	// (distinct from never-populated), letting the owner cache "no
	// per-task filter applies".
	SyscallFilter() (v any, populated bool)
	// SetSyscallFilter populates the syscall-entry slot (nil included).
	SetSyscallFilter(v any)
}

// NullFilterSlot is an embeddable no-op implementation of Task's
// syscall-filter slot for Task implementors that never meet a syscall
// mediator (policy-unit fakes in tests). The kernel's task keeps a real
// lock-free slot instead.
type NullFilterSlot struct{}

// SyscallFilter reports a never-populated slot.
func (NullFilterSlot) SyscallFilter() (any, bool) { return nil, false }

// SetSyscallFilter discards the value.
func (NullFilterSlot) SetSyscallFilter(any) {}

// Decision is a module's opinion about an operation.
type Decision int

// Decisions, in increasing precedence for chain combination (Deny always
// dominates).
const (
	// NoOpinion defers to the kernel's base policy (e.g. "requires
	// CAP_SYS_ADMIN").
	NoOpinion Decision = iota
	// Grant permits the operation even where base policy would deny it —
	// the Protego relaxation for whitelisted objects.
	Grant
	// DeferToExec (setuid/setgid only) reports success to the caller but
	// defers the credential change to the next exec, where the (binary,
	// target user) pair is validated — the paper's setuid-on-exec
	// mechanism (§4.3), needed because enforcement spans two syscalls.
	DeferToExec
	// Deny rejects the operation regardless of base policy.
	Deny
)

// String names the decision.
func (d Decision) String() string { return trace.DecisionName(int(d)) }

// MountRequest carries the arguments of a mount(2) call to the hook.
type MountRequest struct {
	Device   string
	Point    string
	FSType   string
	Options  []string
	ReadOnly bool
}

// UmountRequest carries the arguments of umount(2).
type UmountRequest struct {
	Point string
	// Device that is mounted there, if any.
	Device string
	// MountedBy is the uid that created the mount.
	MountedBy int
	// UserMount records whether the mount was created by a non-root user
	// through the user-mount whitelist.
	UserMount bool
}

// SocketRequest carries the arguments of socket(2).
type SocketRequest struct {
	Family int
	Type   int
	Proto  int
	// MarkUnprivRaw is set by a module that grants an unprivileged raw
	// socket; the kernel then tags the socket so netfilter can subject
	// its traffic to the raw-socket rules.
	MarkUnprivRaw bool
}

// BindRequest carries the arguments of bind(2).
type BindRequest struct {
	Family int
	Type   int
	Proto  int
	Port   int
}

// IoctlRequest describes a device ioctl.
type IoctlRequest struct {
	Path string // device path, e.g. /dev/ppp
	Cmd  uint32
	Arg  any
}

// ExecRequest describes an execve(2). Env may be filtered in place by a
// module (Protego sanitizes the environment across delegated transitions).
type ExecRequest struct {
	Path string
	Argv []string
	Env  map[string]string
	// SetuidBit reports whether the binary carries the setuid bit, and
	// FileUID its owner; modules may veto the privilege elevation.
	SetuidBit bool
	FileUID   int
}

// CredUpdate is returned from ExecCheck when a module wants the kernel to
// apply a credential change at exec time (the deferred half of
// setuid-on-exec). Nil pointers mean "leave unchanged".
type CredUpdate struct {
	UID *int
	GID *int
	// Groups, when non-nil, replaces the supplementary groups (the
	// target user's groups on a delegated transition).
	Groups []int
	// DropGroups clears supplementary groups; ignored when Groups is
	// non-nil.
	DropGroups bool
}

// OpenRequest describes a file open for the FileOpen hook.
type OpenRequest struct {
	Path  string
	Write bool
	// OwnerUID and Mode describe the target inode so modules can apply
	// object-based policy without a VFS dependency.
	OwnerUID int
	Mode     uint32
	// DACAllowed reports whether discretionary access control already
	// admits the open; a Grant decision overrides a DAC failure.
	DACAllowed bool
}

// GroupResolver is an optional module capability: resolving the
// supplementary groups of a uid, so the kernel can establish the target's
// groups when it performs a granted credential transition (the task itself
// is unprivileged afterwards and could not).
type GroupResolver interface {
	ResolveGroups(uid int) ([]int, bool)
}

// Module is the full set of mediation hooks. Embed Base to get
// no-opinion defaults and override only the hooks a policy needs.
type Module interface {
	// Name identifies the module in logs and /proc output.
	Name() string

	// MountCheck mediates mount(2).
	MountCheck(t Task, req *MountRequest) (Decision, error)
	// UmountCheck mediates umount(2).
	UmountCheck(t Task, req *UmountRequest) (Decision, error)
	// SocketCreate mediates socket(2); raw/packet socket creation by
	// tasks lacking CAP_NET_RAW reaches here on Protego instead of
	// failing outright.
	SocketCreate(t Task, req *SocketRequest) (Decision, error)
	// BindCheck mediates bind(2) to ports below 1024 by callers lacking
	// CAP_NET_BIND_SERVICE.
	BindCheck(t Task, req *BindRequest) (Decision, error)
	// IoctlCheck mediates privileged device ioctls (route updates, modem
	// configuration, dmcrypt metadata).
	IoctlCheck(t Task, req *IoctlRequest) (Decision, error)
	// SetuidCheck mediates setuid(2) transitions base policy would deny.
	SetuidCheck(t Task, targetUID int) (Decision, error)
	// SetgidCheck mediates setgid(2)/newgrp transitions.
	SetgidCheck(t Task, targetGID int) (Decision, error)
	// ExecCheck mediates execve(2); it may veto the exec or return a
	// credential update to apply (completing a deferred setuid).
	ExecCheck(t Task, req *ExecRequest) (*CredUpdate, error)
	// FileOpen mediates opens: Deny blocks a DAC-admitted open, Grant
	// admits a DAC-denied one (e.g. ssh-keysign reading the host key).
	FileOpen(t Task, req *OpenRequest) (Decision, error)
	// TaskSyscall mediates syscall entry itself: the kernel consults it
	// from the single enter() prologue before dispatching any syscall, so
	// a module can enforce a per-task syscall allowlist (seccomp-style).
	// sysno is the kernel.Sysno catalog number, name its trace name; lsm
	// deliberately takes plain values so the dependency keeps pointing
	// kernel -> lsm. Deny surfaces to the caller as ENOSYS. A module that
	// overrides this hook MUST also implement SyscallMediator, or the
	// chain — which pre-filters the hot path down to mediators at
	// registration — will never call it.
	TaskSyscall(t Task, sysno int, name string) (Decision, error)
}

// SyscallMediator marks syscall-layer modules (seccomp-style filters),
// whose TaskSyscall does real work. The chain walks only mediators on the
// per-syscall hot path, so the many modules keeping Base's structural
// no-op cost nothing there — not even an interface dispatch per syscall.
// Conversely, a mediator is consulted on TaskSyscall and ExecCheck (where
// it swaps per-image state) only: arming a syscall filter adds nothing to
// the object hooks (open, mount, socket, ...) it never mediates.
type SyscallMediator interface{ MediatesSyscall() }

// Base provides no-opinion defaults for all hooks.
type Base struct{}

// MountCheck has no opinion by default.
func (Base) MountCheck(Task, *MountRequest) (Decision, error) { return NoOpinion, nil }

// UmountCheck has no opinion by default.
func (Base) UmountCheck(Task, *UmountRequest) (Decision, error) { return NoOpinion, nil }

// SocketCreate has no opinion by default.
func (Base) SocketCreate(Task, *SocketRequest) (Decision, error) { return NoOpinion, nil }

// BindCheck has no opinion by default.
func (Base) BindCheck(Task, *BindRequest) (Decision, error) { return NoOpinion, nil }

// IoctlCheck has no opinion by default.
func (Base) IoctlCheck(Task, *IoctlRequest) (Decision, error) { return NoOpinion, nil }

// SetuidCheck has no opinion by default.
func (Base) SetuidCheck(Task, int) (Decision, error) { return NoOpinion, nil }

// SetgidCheck has no opinion by default.
func (Base) SetgidCheck(Task, int) (Decision, error) { return NoOpinion, nil }

// ExecCheck allows by default with no credential update.
func (Base) ExecCheck(Task, *ExecRequest) (*CredUpdate, error) { return nil, nil }

// FileOpen has no opinion by default.
func (Base) FileOpen(Task, *OpenRequest) (Decision, error) { return NoOpinion, nil }

// TaskSyscall has no opinion by default.
func (Base) TaskSyscall(Task, int, string) (Decision, error) { return NoOpinion, nil }

// combine merges a new decision into an accumulator: Deny dominates, then
// DeferToExec, then Grant, then NoOpinion.
func combine(acc, d Decision) Decision {
	if d > acc {
		return d
	}
	return acc
}

// Chain composes several modules. Deny from any module wins, matching the
// restrictive stacking discipline of Linux LSMs; otherwise the strongest
// permissive decision is reported to the kernel.
type Chain struct {
	members []*member
	// sysMods is the subset of members implementing SyscallMediator, the
	// only ones TaskSyscall walks (see that hook's contract); objMods is
	// the rest, the only ones the object hooks walk.
	sysMods []*member
	objMods []*member
	// tracer, when set, receives one decision event per hook evaluation
	// (tagged with the winning module) plus per-module decision counts.
	// It is installed once at kernel construction, before any concurrent
	// hook traffic.
	tracer *trace.Tracer
}

// member is one registered module and its slot in the tracer's decision
// matrix.
type member struct {
	Module
	slot int
}

// NewChain creates a chain over the given modules (evaluated in order).
func NewChain(modules ...Module) *Chain {
	c := &Chain{}
	for _, m := range modules {
		c.Register(m)
	}
	return c
}

// Register appends a module to the chain. With a tracer installed, the
// module takes its decision-matrix slot now (panicking when the matrix is
// full); otherwise SetTracer assigns it.
func (c *Chain) Register(m Module) {
	e := &member{Module: m, slot: c.tracer.ModuleSlot(m.Name())}
	c.members = append(c.members, e)
	if _, ok := m.(SyscallMediator); ok {
		c.sysMods = append(c.sysMods, e)
	} else {
		c.objMods = append(c.objMods, e)
	}
}

// SetTracer installs the trace sink for hook decisions and gives every
// registered module its decision-matrix slot. Must be called before the
// chain sees concurrent traffic (the kernel does it at boot).
func (c *Chain) SetTracer(tr *trace.Tracer) {
	c.tracer = tr
	for _, e := range c.members {
		e.slot = tr.ModuleSlot(e.Name())
	}
}

// Name implements Module for nested chains.
func (c *Chain) Name() string { return "chain" }

type hookFunc func(m Module) (Decision, error)

// run evaluates hook across the chain's object-hook modules (mediators
// sit out; see SyscallMediator). A Deny — or an error, which is
// treated as Deny — short-circuits; otherwise the strongest permissive
// decision accumulates. The winning module (the denier, or the module
// whose opinion raised the accumulator last) is reported to the tracer;
// an empty winner means every module deferred to base policy.
func (c *Chain) run(hook trace.Hook, t Task, f hookFunc) (Decision, error) {
	var start time.Time
	if c.tracer != nil {
		start = time.Now()
	}
	acc := NoOpinion
	winner := ""
	for _, e := range c.objMods {
		dec, err := f(e.Module)
		c.count(hook, e, dec, err)
		if dec == Deny || err != nil {
			c.observe(hook, t, Deny, e.Name(), err, start)
			return Deny, err
		}
		if next := combine(acc, dec); next != acc {
			acc = next
			winner = e.Name()
		}
	}
	c.observe(hook, t, acc, winner, nil, start)
	return acc, nil
}

// count bumps the decision-matrix cell of one consulted module.
func (c *Chain) count(hook trace.Hook, e *member, dec Decision, err error) {
	if err != nil {
		dec = Deny
	}
	c.tracer.CountHook(hook, e.slot, int(dec))
}

// observe emits the hook's decision event.
func (c *Chain) observe(hook trace.Hook, t Task, dec Decision, winner string, err error, start time.Time) {
	if c.tracer == nil {
		return
	}
	pid, uid := 0, -1
	if t != nil {
		pid, uid = t.PID(), t.UID()
	}
	c.tracer.LSMDecision(hook.String(), pid, uid, dec.String(), winner, err, time.Since(start))
}

// MountCheck runs the hook across the chain.
func (c *Chain) MountCheck(t Task, req *MountRequest) (Decision, error) {
	return c.run(trace.HookMount, t, func(m Module) (Decision, error) { return m.MountCheck(t, req) })
}

// UmountCheck runs the hook across the chain.
func (c *Chain) UmountCheck(t Task, req *UmountRequest) (Decision, error) {
	return c.run(trace.HookUmount, t, func(m Module) (Decision, error) { return m.UmountCheck(t, req) })
}

// SocketCreate runs the hook across the chain.
func (c *Chain) SocketCreate(t Task, req *SocketRequest) (Decision, error) {
	return c.run(trace.HookSocketCreate, t, func(m Module) (Decision, error) { return m.SocketCreate(t, req) })
}

// BindCheck runs the hook across the chain.
func (c *Chain) BindCheck(t Task, req *BindRequest) (Decision, error) {
	return c.run(trace.HookBind, t, func(m Module) (Decision, error) { return m.BindCheck(t, req) })
}

// IoctlCheck runs the hook across the chain.
func (c *Chain) IoctlCheck(t Task, req *IoctlRequest) (Decision, error) {
	return c.run(trace.HookIoctl, t, func(m Module) (Decision, error) { return m.IoctlCheck(t, req) })
}

// SetuidCheck runs the hook across the chain.
func (c *Chain) SetuidCheck(t Task, targetUID int) (Decision, error) {
	return c.run(trace.HookSetuid, t, func(m Module) (Decision, error) { return m.SetuidCheck(t, targetUID) })
}

// SetgidCheck runs the hook across the chain.
func (c *Chain) SetgidCheck(t Task, targetGID int) (Decision, error) {
	return c.run(trace.HookSetgid, t, func(m Module) (Decision, error) { return m.SetgidCheck(t, targetGID) })
}

// ExecCheck runs the hook across the chain; the first non-nil CredUpdate is
// kept (modules later in the chain still get to veto).
func (c *Chain) ExecCheck(t Task, req *ExecRequest) (*CredUpdate, error) {
	var start time.Time
	if c.tracer != nil {
		start = time.Now()
	}
	var update *CredUpdate
	winner := ""
	for _, e := range c.members {
		u, err := e.ExecCheck(t, req)
		if err != nil {
			c.count(trace.HookExec, e, Deny, err)
			c.observe(trace.HookExec, t, Deny, e.Name(), err, start)
			return nil, err
		}
		dec := NoOpinion
		if u != nil {
			dec = Grant
		}
		c.count(trace.HookExec, e, dec, nil)
		if update == nil && u != nil {
			update = u
			winner = e.Name()
		}
	}
	dec := NoOpinion
	if update != nil {
		dec = Grant
	}
	c.observe(trace.HookExec, t, dec, winner, nil, start)
	return update, nil
}

// FileOpen runs the hook across the chain.
func (c *Chain) FileOpen(t Task, req *OpenRequest) (Decision, error) {
	return c.run(trace.HookFileOpen, t, func(m Module) (Decision, error) { return m.FileOpen(t, req) })
}

// TaskSyscall runs the syscall-entry hook across the chain. The chain
// discipline is the same as run's — Deny or an error short-circuits,
// otherwise the strongest permissive decision wins — but the hook sits on
// every syscall's hot path, so the overwhelmingly common unanimous
// no-opinion outcome skips the decision matrix and the event and bumps
// only the lsm.syscall.allow fast-path cell. Effectual decisions (a deny,
// a grant, a module error) are counted and observed like any hook's.
// Latency is not separately sampled here: the per-syscall histograms
// already bracket the prologue. Only modules registered as
// SyscallMediator are consulted.
func (c *Chain) TaskSyscall(t Task, sysno int, name string) (Decision, error) {
	acc := NoOpinion
	var winner *member
	for _, e := range c.sysMods {
		dec, err := e.TaskSyscall(t, sysno, name)
		if dec == Deny || err != nil {
			c.count(trace.HookTaskSyscall, e, dec, err)
			c.observe(trace.HookTaskSyscall, t, Deny, e.Name(), err, time.Now())
			return Deny, err
		}
		if next := combine(acc, dec); next != acc {
			acc = next
			winner = e
		}
	}
	if acc == NoOpinion {
		c.tracer.Count(trace.SyscallAllow)
		return NoOpinion, nil
	}
	c.count(trace.HookTaskSyscall, winner, acc, nil)
	c.observe(trace.HookTaskSyscall, t, acc, winner.Name(), nil, time.Now())
	return acc, nil
}

// ResolveGroups queries the first module implementing GroupResolver.
func (c *Chain) ResolveGroups(uid int) ([]int, bool) {
	for _, e := range c.members {
		if r, ok := e.Module.(GroupResolver); ok {
			if groups, ok := r.ResolveGroups(uid); ok {
				return groups, true
			}
		}
	}
	return nil, false
}

var _ Module = (*Chain)(nil)
