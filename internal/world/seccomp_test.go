package world

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/seccomp"
	"protego/internal/trace"
	"protego/internal/userspace"
	"protego/internal/vfs"
)

// restrictedInitSet builds a machine image whose session tasks (which
// inherit init's binary path until they exec) are allowed everything
// except the given syscalls; the machine union stays full so exec-ed
// children are unconstrained.
func restrictedInitSet(forbid ...kernel.Sysno) *seccomp.ProfileSet {
	set := seccomp.NewSet(kernel.ModeProtego.String())
	set.Machine = seccomp.FullProfile("")
	p := seccomp.FullProfile("/sbin/init")
	for _, sn := range forbid {
		p.Forbid(sn)
	}
	set.Add(p)
	return set
}

func seccompMachine(t *testing.T, set *seccomp.ProfileSet) *Machine {
	t.Helper()
	m, err := Build(Options{Mode: kernel.ModeProtego, SeccompProfiles: set})
	if err != nil {
		t.Fatal(err)
	}
	if m.Seccomp == nil || !m.K.SyscallGate() {
		t.Fatal("Build did not install the seccomp module and arm the gate")
	}
	return m
}

// TestSeccompForkInheritExecSwap pins the profile lifecycle: exec installs
// the new image's profile as the task's blob, fork copies the blob to the
// child, and exec into an unprofiled binary clears it so the task falls
// back to the machine union.
func TestSeccompForkInheritExecSwap(t *testing.T) {
	set := seccomp.NewSet(kernel.ModeProtego.String())
	set.Machine = seccomp.FullProfile("")
	sh := seccomp.FullProfile(userspace.BinSh)
	sh.Forbid(kernel.SysKill)
	set.Add(sh)

	m := seccompMachine(t, set)
	k := m.K
	sess, err := m.Session("root")
	if err != nil {
		t.Fatal(err)
	}

	// Pre-exec: no blob, /sbin/init is unprofiled → machine union → allowed.
	if err := k.Kill(sess, sess.PID(), 15); err != nil {
		t.Fatalf("kill under machine union: %v", err)
	}

	child := k.Fork(sess)
	if code, err := k.Exec(child, userspace.BinSh, []string{userspace.BinSh, "-c", "true"}, nil); err != nil || code != 0 {
		t.Fatalf("exec sh: code=%d err=%v", code, err)
	}
	if p, _ := child.SecurityBlob(seccomp.BlobKey).(*seccomp.Profile); p == nil || p.Binary != userspace.BinSh {
		t.Fatalf("exec did not install the sh profile blob: %v", child.SecurityBlob(seccomp.BlobKey))
	}
	if err := k.Kill(child, child.PID(), 15); !errno.Is(err, errno.ENOSYS) {
		t.Fatalf("kill outside sh profile: err=%v, want ENOSYS", err)
	}

	// Fork inherits the blob: the grandchild is still confined to the sh
	// profile even though it never exec-ed.
	grand := k.Fork(child)
	if err := k.Kill(grand, grand.PID(), 15); !errno.Is(err, errno.ENOSYS) {
		t.Fatalf("kill in forked child of sh: err=%v, want ENOSYS", err)
	}

	// Exec into an unprofiled binary clears the blob → machine union again.
	if code, err := k.Exec(grand, userspace.BinID, nil, nil); err != nil || code != 0 {
		t.Fatalf("exec id: code=%d err=%v", code, err)
	}
	if grand.SecurityBlob(seccomp.BlobKey) != nil {
		t.Fatal("exec into unprofiled binary left a stale profile blob")
	}
	if err := k.Kill(grand, grand.PID(), 15); err != nil {
		t.Fatalf("kill after swap back to machine union: %v", err)
	}
}

// failClosedCase drives one catalog syscall from a root session: op
// issues the syscall (after any prerequisite calls, which use other
// syscalls) and returns its error.
type failClosedCase struct {
	op     func(k *kernel.Kernel, tk *kernel.Task) error
	id     bool   // get*id family: a denial still returns the id, no error
	ghost  string // path that must NOT exist after the denial
	intact string // path that must still exist after the denial
}

// failClosedCases has one row per catalog syscall.
var failClosedCases = map[kernel.Sysno]failClosedCase{
	kernel.SysOpen: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		fd, err := k.Open(tk, "/etc/motd", kernel.O_RDONLY)
		if err == nil {
			_ = k.CloseFD(tk, fd)
		}
		return err
	}},
	kernel.SysRead: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return withFD(k, tk, "/etc/motd", kernel.O_RDONLY, func(fd int) error {
			_, err := k.Read(tk, fd, 16)
			return err
		})
	}},
	kernel.SysWrite: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return withFD(k, tk, "/tmp/seccomp-write", kernel.O_WRONLY|kernel.O_CREAT, func(fd int) error {
			_, err := k.Write(tk, fd, []byte("x"))
			return err
		})
	}},
	kernel.SysClose: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		fd, err := k.Open(tk, "/etc/motd", kernel.O_RDONLY)
		if err != nil {
			return err
		}
		return k.CloseFD(tk, fd)
	}},
	kernel.SysFcntl: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return withFD(k, tk, "/etc/motd", kernel.O_RDONLY, func(fd int) error {
			return k.SetCloseOnExec(tk, fd, true)
		})
	}},
	kernel.SysStat: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		_, err := k.Stat(tk, "/etc/motd")
		return err
	}},
	kernel.SysAccess: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Access(tk, "/etc/motd", vfs.MayRead)
	}},
	kernel.SysReadFile: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		_, err := k.ReadFile(tk, "/etc/motd")
		return err
	}},
	kernel.SysWriteFile: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.WriteFile(tk, "/tmp/seccomp-file", []byte("x"))
	}, ghost: "/tmp/seccomp-file"},
	kernel.SysAppendFile: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.AppendFile(tk, "/etc/motd", []byte("x"))
	}},
	kernel.SysMkdir: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Mkdir(tk, "/tmp/seccomp-dir", 0o755)
	}, ghost: "/tmp/seccomp-dir"},
	kernel.SysUnlink: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Unlink(tk, "/etc/motd")
	}, intact: "/etc/motd"},
	kernel.SysRename: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		if err := k.WriteFile(tk, "/tmp/seccomp-src", []byte("x")); err != nil {
			return err
		}
		return k.Rename(tk, "/tmp/seccomp-src", "/tmp/seccomp-dst")
	}, ghost: "/tmp/seccomp-dst", intact: "/tmp/seccomp-src"},
	kernel.SysChmod: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Chmod(tk, "/etc/motd", 0o644)
	}},
	kernel.SysChown: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Chown(tk, "/etc/motd", 0, 0)
	}},
	kernel.SysReadDir: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		_, err := k.ReadDir(tk, "/etc")
		return err
	}},
	kernel.SysChdir: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Chdir(tk, "/tmp")
	}},
	kernel.SysGetuid: {id: true, op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return sameID("uid", k.Getuid(tk), tk.UID())
	}},
	kernel.SysGeteuid: {id: true, op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return sameID("euid", k.Geteuid(tk), tk.EUID())
	}},
	kernel.SysGetgid: {id: true, op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return sameID("gid", k.Getgid(tk), tk.GID())
	}},
	kernel.SysGetegid: {id: true, op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return sameID("egid", k.Getegid(tk), tk.EGID())
	}},
	kernel.SysGetpid: {id: true, op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return sameID("pid", k.Getpid(tk), tk.PID())
	}},
	kernel.SysSetuid: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Setuid(tk, 0)
	}},
	kernel.SysSeteuid: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Seteuid(tk, 0)
	}},
	kernel.SysSetgid: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Setgid(tk, 0)
	}},
	kernel.SysSetgroups: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Setgroups(tk, []int{0})
	}},
	kernel.SysMount: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Mount(tk, "/dev/cdrom", "/cdrom", "iso9660", []string{"ro"})
	}},
	kernel.SysUmount: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		if k.FS.MountAt("/cdrom") == nil {
			if err := k.Mount(tk, "/dev/cdrom", "/cdrom", "iso9660", []string{"ro"}); err != nil {
				return err
			}
		}
		return k.Umount(tk, "/cdrom")
	}},
	kernel.SysSocket: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		s, err := k.Socket(tk, netstack.AF_INET, netstack.SOCK_DGRAM, netstack.IPPROTO_UDP)
		if err == nil {
			_ = k.CloseSocket(tk, s)
		}
		return err
	}},
	kernel.SysBind: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return withSocks(k, tk, 1, netstack.SOCK_DGRAM, func(s []*netstack.Socket) error {
			return k.Bind(tk, s[0], 0)
		})
	}},
	kernel.SysListen: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return withSocks(k, tk, 1, netstack.SOCK_STREAM, func(s []*netstack.Socket) error {
			if err := k.Bind(tk, s[0], 0); err != nil {
				return err
			}
			return k.Listen(tk, s[0], 4)
		})
	}},
	kernel.SysAccept: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return withSocks(k, tk, 2, netstack.SOCK_STREAM, func(s []*netstack.Socket) error {
			if err := listenConnect(k, tk, s[0], s[1]); err != nil {
				return err
			}
			conn, err := k.Accept(tk, s[0], time.Second)
			if err == nil {
				_ = k.CloseSocket(tk, conn)
			}
			return err
		})
	}},
	kernel.SysConnect: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return withSocks(k, tk, 2, netstack.SOCK_STREAM, func(s []*netstack.Socket) error {
			return listenConnect(k, tk, s[0], s[1])
		})
	}},
	kernel.SysSend: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return withSocks(k, tk, 2, netstack.SOCK_STREAM, func(s []*netstack.Socket) error {
			if err := listenConnect(k, tk, s[0], s[1]); err != nil {
				return err
			}
			_, err := k.Send(tk, s[1], []byte("x"))
			return err
		})
	}},
	kernel.SysRecv: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return withSocks(k, tk, 2, netstack.SOCK_STREAM, func(s []*netstack.Socket) error {
			if err := listenConnect(k, tk, s[0], s[1]); err != nil {
				return err
			}
			conn, err := k.Accept(tk, s[0], time.Second)
			if err != nil {
				return err
			}
			defer k.CloseSocket(tk, conn)
			if _, err := k.Send(tk, s[1], []byte("x")); err != nil {
				return err
			}
			_, err = k.Recv(tk, conn, time.Second)
			return err
		})
	}},
	kernel.SysSendTo: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return withSocks(k, tk, 2, netstack.SOCK_DGRAM, func(s []*netstack.Socket) error {
			return bindSendTo(k, tk, s[0], s[1])
		})
	}},
	kernel.SysRecvFrom: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return withSocks(k, tk, 2, netstack.SOCK_DGRAM, func(s []*netstack.Socket) error {
			if err := bindSendTo(k, tk, s[0], s[1]); err != nil {
				return err
			}
			_, err := k.RecvFrom(tk, s[0], time.Second)
			return err
		})
	}},
	kernel.SysCloseSock: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		s, err := k.Socket(tk, netstack.AF_INET, netstack.SOCK_DGRAM, netstack.IPPROTO_UDP)
		if err != nil {
			return err
		}
		return k.CloseSocket(tk, s)
	}},
	kernel.SysAddRoute: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.AddRoute(tk, seccompRoute)
	}},
	kernel.SysDelRoute: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		if err := k.AddRoute(tk, seccompRoute); err != nil {
			return err
		}
		return k.DelRoute(tk, seccompRoute.Dest, seccompRoute.PrefixLen)
	}},
	kernel.SysIoctl: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Ioctl(tk, userspace.VideoDevice, kernel.VIDIOCSMODE, nil)
	}},
	kernel.SysSigAction: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.SigAction(tk, 10, func(int) {})
	}},
	kernel.SysKill: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		return k.Kill(tk, tk.PID(), 15)
	}},
	kernel.SysExec: {op: func(k *kernel.Kernel, tk *kernel.Task) error {
		child := k.Fork(tk)
		code, err := k.Exec(child, userspace.BinID, nil, nil)
		k.Exit(child, code)
		if err == nil && code != 0 {
			return fmt.Errorf("exec id: exit code %d", code)
		}
		return err
	}},
}

var seccompRoute = netstack.Route{Dest: netstack.IPv4(172, 16, 0, 0), PrefixLen: 16, Iface: "eth0"}

func sameID(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s = %d, want %d", what, got, want)
	}
	return nil
}

// withFD opens path, runs op on the descriptor, and closes it.
func withFD(k *kernel.Kernel, tk *kernel.Task, path string, flags int, op func(fd int) error) error {
	fd, err := k.Open(tk, path, flags)
	if err != nil {
		return err
	}
	defer k.CloseFD(tk, fd)
	return op(fd)
}

// withSocks creates n AF_INET sockets of type typ, runs op on them, and
// closes them all.
func withSocks(k *kernel.Kernel, tk *kernel.Task, n, typ int, op func([]*netstack.Socket) error) error {
	proto := netstack.IPPROTO_UDP
	if typ == netstack.SOCK_STREAM {
		proto = netstack.IPPROTO_TCP
	}
	socks := make([]*netstack.Socket, 0, n)
	defer func() {
		for _, s := range socks {
			_ = k.CloseSocket(tk, s)
		}
	}()
	for i := 0; i < n; i++ {
		s, err := k.Socket(tk, netstack.AF_INET, typ, proto)
		if err != nil {
			return err
		}
		socks = append(socks, s)
	}
	return op(socks)
}

// listenConnect makes server a listener on an ephemeral port and connects
// client to it.
func listenConnect(k *kernel.Kernel, tk *kernel.Task, server, client *netstack.Socket) error {
	if err := k.Bind(tk, server, 0); err != nil {
		return err
	}
	if err := k.Listen(tk, server, 4); err != nil {
		return err
	}
	return k.Connect(tk, client, k.Net.HostIP(), server.LocalPort)
}

// bindSendTo binds server to an ephemeral port and sends it one datagram
// from client.
func bindSendTo(k *kernel.Kernel, tk *kernel.Task, server, client *netstack.Socket) error {
	if err := k.Bind(tk, server, 0); err != nil {
		return err
	}
	return k.SendTo(tk, client, &netstack.Packet{Dst: k.Net.HostIP(), DstPort: server.LocalPort, Payload: []byte("x")})
}

// syscallExits counts the syscall-exit events named name among the events
// emitted after the tracer's emission count read mark.
func syscallExits(k *kernel.Kernel, mark uint64, name string) int {
	evs := k.Trace.Snapshot()
	evs = evs[len(evs)-int(k.Trace.Stats().Emitted-mark):]
	n := 0
	for _, ev := range evs {
		if ev.Kind == trace.KindSyscallExit && ev.Name == name {
			n++
		}
	}
	return n
}

// TestSeccompFailClosed: every catalog syscall, when outside the task's
// profile, must fail closed with ENOSYS through the unified errno helpers
// (the get*id family instead returns the id with no error), emit exactly
// one exit event under its catalog name, and leave no partial state
// behind; the identical operation must succeed once the gate is disarmed
// — the same discipline the fault-injection error paths are held to.
func TestSeccompFailClosed(t *testing.T) {
	for _, sn := range kernel.Sysnos() {
		c, ok := failClosedCases[sn]
		if !ok {
			t.Errorf("no fail-closed case for catalog syscall %s", sn)
			continue
		}
		t.Run(sn.String(), func(t *testing.T) {
			m := seccompMachine(t, restrictedInitSet(sn))
			k := m.K
			sess, err := m.Session("root")
			if err != nil {
				t.Fatal(err)
			}
			mark := k.Trace.Stats().Emitted
			err = c.op(k, sess)
			if n := syscallExits(k, mark, sn.String()); n != 1 {
				t.Errorf("denied call emitted %d %q exit events, want 1", n, sn)
			}
			switch {
			case c.id:
				if err != nil {
					t.Fatalf("denied get*id: %v, want the id and no error", err)
				}
			case err == nil:
				t.Fatalf("expected ENOSYS, got success")
			case !errno.Is(err, errno.ENOSYS):
				t.Fatalf("error %v does not unwrap to ENOSYS", err)
			case errno.Of(err) != errno.ENOSYS:
				t.Fatalf("errno.Of(%v) = %v, want ENOSYS", err, errno.Of(err))
			}
			if c.ghost != "" {
				if _, err := k.Stat(sess, c.ghost); !errno.Is(err, errno.ENOENT) {
					t.Fatalf("denied syscall left partial state at %s (stat err=%v)", c.ghost, err)
				}
			}
			if c.intact != "" {
				if _, err := k.Stat(sess, c.intact); err != nil {
					t.Fatalf("denied syscall damaged %s: %v", c.intact, err)
				}
			}
			// The denial is spent state-free: disarm the gate and the same
			// operation succeeds on the same machine.
			k.SetSyscallGate(false)
			if err := c.op(k, sess); err != nil {
				t.Fatalf("operation still failing after gate disarmed: %v", err)
			}
		})
	}
}

// TestSeccompDecisionsInTraceStats: TaskSyscall outcomes must be visible
// in /proc/trace/stats — denials as decision counters attributed to the
// seccomp module, unanimous allows through the lsm.syscall.allow
// fast-path counter.
func TestSeccompDecisionsInTraceStats(t *testing.T) {
	m := seccompMachine(t, restrictedInitSet(kernel.SysMkdir))
	k := m.K
	sess, err := m.Session("root")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Mkdir(sess, "/tmp/denied", 0o755); !errno.Is(err, errno.ENOSYS) {
		t.Fatalf("mkdir: err=%v, want ENOSYS", err)
	}
	if _, err := k.ReadFile(sess, "/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	stats, err := k.ReadFile(sess, kernel.ProcTraceStats)
	if err != nil {
		t.Fatal(err)
	}
	text := string(stats)
	if !strings.Contains(text, "lsm.syscall.allow") {
		t.Error("stats missing the lsm.syscall.allow fast-path counter")
	}
	var denyLine bool
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "TaskSyscall") &&
			strings.Contains(line, "seccomp") && strings.Contains(line, "deny") {
			denyLine = true
		}
	}
	if !denyLine {
		t.Errorf("stats missing the seccomp TaskSyscall deny counter:\n%s", text)
	}
}

// TestSeccompSurvivesSnapshotClone: a stamped clone keeps the parent's
// profiles (shared by reference), its armed gate, and its denials; blobs
// installed before the snapshot travel with the cloned tasks.
func TestSeccompSurvivesSnapshotClone(t *testing.T) {
	set := restrictedInitSet(kernel.SysMkdir)
	parent := seccompMachine(t, set)
	snap := parent.Snapshot()
	clone, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.Seccomp == nil {
		t.Fatal("clone lost the seccomp module")
	}
	if clone.Seccomp.Set() != set {
		t.Fatal("clone's module does not share the parent's profile set")
	}
	if !clone.K.SyscallGate() {
		t.Fatal("clone's syscall gate is disarmed")
	}
	for name, m := range map[string]*Machine{"parent": parent, "clone": clone} {
		sess, err := m.Session("root")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.K.Mkdir(sess, "/tmp/post-clone", 0o755); !errno.Is(err, errno.ENOSYS) {
			t.Fatalf("%s: mkdir err=%v, want ENOSYS", name, err)
		}
		if _, err := m.K.ReadFile(sess, "/etc/passwd"); err != nil {
			t.Fatalf("%s: allowed syscall failed: %v", name, err)
		}
	}
	// Disarming the clone's gate must not disarm the parent's.
	clone.K.SetSyscallGate(false)
	if !parent.K.SyscallGate() {
		t.Fatal("clone gate state leaked into the parent")
	}
}
