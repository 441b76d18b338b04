package core_test

import (
	"strings"
	"testing"
	"time"

	"protego/internal/core"
	"protego/internal/errno"
	"protego/internal/faultinject"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/policy"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

func protegoMachine(t *testing.T) *world.Machine {
	t.Helper()
	m, err := world.BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func session(t *testing.T, m *world.Machine, user string) *kernel.Task {
	t.Helper()
	s, err := m.Session(user)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// --- mount whitelist ---

func TestMountRulesFromFstab(t *testing.T) {
	entries, err := policy.ParseFstab(`
/dev/sda1  /           ext4    defaults        0 1
/dev/cdrom /cdrom      iso9660 ro,user,noauto  0 0
/dev/sdb1  /media/usb  vfat    rw,users        0 0
`)
	if err != nil {
		t.Fatal(err)
	}
	rules := core.MountRulesFromFstab(entries)
	if len(rules) != 2 {
		t.Fatalf("rules = %d (root fs must be excluded)", len(rules))
	}
	var cdrom, usb *core.MountRule
	for i := range rules {
		switch rules[i].MountPoint {
		case "/cdrom":
			cdrom = &rules[i]
		case "/media/usb":
			usb = &rules[i]
		}
	}
	if cdrom == nil || usb == nil {
		t.Fatalf("rules: %+v", rules)
	}
	if cdrom.AnyUserUnmount {
		t.Fatal("'user' entry marked users")
	}
	if !usb.AnyUserUnmount {
		t.Fatal("'users' entry not marked")
	}
}

func TestMountWhitelistMatching(t *testing.T) {
	m := protegoMachine(t)
	alice := session(t, m, "alice")
	// fstype "auto" on the request side matches a typed rule.
	if err := m.K.Mount(alice, "/dev/cdrom", "/cdrom", "auto", []string{"ro"}); err != nil {
		t.Fatalf("auto fstype: %v", err)
	}
	if err := m.K.Umount(alice, "/cdrom"); err != nil {
		t.Fatal(err)
	}
	// Wrong fstype is refused.
	if err := m.K.Mount(alice, "/dev/cdrom", "/cdrom", "ext4", nil); err != errno.EPERM {
		t.Fatalf("wrong fstype: %v", err)
	}
	// Wrong mountpoint is refused.
	if err := m.K.Mount(alice, "/dev/cdrom", "/tmp", "iso9660", nil); err != errno.EPERM {
		t.Fatalf("wrong point: %v", err)
	}
	// Wrong device is refused.
	if err := m.K.Mount(alice, "/dev/sdc1", "/cdrom", "iso9660", nil); err != errno.EPERM {
		t.Fatalf("wrong device: %v", err)
	}
	if m.Protego.Stats.Snapshot().MountDenials == 0 {
		t.Fatal("denials not counted")
	}
}

func TestMountRuleString(t *testing.T) {
	r := core.MountRule{Device: "/dev/cdrom", MountPoint: "/cdrom", FSType: "iso9660",
		Options: []string{"ro"}, AnyUserUnmount: false}
	if r.String() != "/dev/cdrom /cdrom iso9660 ro user" {
		t.Fatalf("string: %q", r.String())
	}
	r.Options = nil
	r.AnyUserUnmount = true
	if r.String() != "/dev/cdrom /cdrom iso9660 - users" {
		t.Fatalf("string: %q", r.String())
	}
}

// --- /proc interface ---

func procWrite(t *testing.T, m *world.Machine, path, data string) error {
	t.Helper()
	ino, err := m.K.FS.Lookup(vfs.RootCred, path)
	if err != nil {
		t.Fatal(err)
	}
	return ino.WriteFn(vfs.RootCred, []byte(data))
}

func TestProcMountsGrammar(t *testing.T) {
	m := protegoMachine(t)
	if err := procWrite(t, m, core.ProcMounts, "clear\nadd /dev/z /mnt auto - users\n"); err != nil {
		t.Fatal(err)
	}
	rules := m.Protego.MountRules()
	if len(rules) != 1 || rules[0].Device != "/dev/z" || !rules[0].AnyUserUnmount {
		t.Fatalf("rules: %+v", rules)
	}
	if err := procWrite(t, m, core.ProcMounts, "del /dev/z /mnt\n"); err != nil {
		t.Fatal(err)
	}
	if len(m.Protego.MountRules()) != 0 {
		t.Fatal("del failed")
	}
	// Bad grammar is rejected.
	for _, bad := range []string{"add /dev/z /mnt auto -", "add /dev/z /mnt auto - wat", "explode"} {
		if err := procWrite(t, m, core.ProcMounts, bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	// Reads render the current rules.
	data, err := m.K.FS.ReadFile(vfs.RootCred, core.ProcMounts)
	if err != nil {
		t.Fatal(err)
	}
	_ = data
}

func TestProcBindGrammar(t *testing.T) {
	m := protegoMachine(t)
	if err := procWrite(t, m, core.ProcBind, "clear\nadd 99 tcp /bin/thing 1000\n"); err != nil {
		t.Fatal(err)
	}
	allocs := m.Protego.BindAllocations()
	if len(allocs) != 1 || allocs[0] != "99 tcp /bin/thing 1000" {
		t.Fatalf("allocs: %v", allocs)
	}
	if err := procWrite(t, m, core.ProcBind, "del 99 tcp\n"); err != nil {
		t.Fatal(err)
	}
	if len(m.Protego.BindAllocations()) != 0 {
		t.Fatal("del failed")
	}
	for _, bad := range []string{"add 0 tcp /b 1", "add 2000 tcp /b 1", "add 99 sctp /b 1", "add 99 tcp /b x"} {
		if err := procWrite(t, m, core.ProcBind, bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestProcDelegationRoundTrip(t *testing.T) {
	m := protegoMachine(t)
	if err := procWrite(t, m, core.ProcDelegation, "dave ALL = (root) NOPASSWD: /bin/ls\n"); err != nil {
		t.Fatal(err)
	}
	s := m.Protego.Sudoers()
	if len(s.Rules) != 1 || s.Rules[0].User != "dave" {
		t.Fatalf("rules: %+v", s.Rules)
	}
	data, err := m.K.FS.ReadFile(vfs.RootCred, core.ProcDelegation)
	if err != nil || !strings.Contains(string(data), "dave") {
		t.Fatalf("read: %q %v", data, err)
	}
	if err := procWrite(t, m, core.ProcDelegation, "broken ="); err == nil {
		t.Fatal("bad sudoers accepted")
	}
}

func TestProcWritesRequireRoot(t *testing.T) {
	m := protegoMachine(t)
	alice := session(t, m, "alice")
	// DAC already blocks (0600 root), so go through the kernel path.
	if err := m.K.WriteFile(alice, core.ProcMounts, []byte("clear")); err == nil {
		t.Fatal("unprivileged policy write accepted")
	}
}

func TestProcStatus(t *testing.T) {
	m := protegoMachine(t)
	data, err := m.K.FS.ReadFile(vfs.RootCred, core.ProcStatus)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"protego: enabled", "mount-whitelist-entries: 2", "delegation-rules:"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("status missing %q: %s", want, data)
		}
	}
}

func TestProcPPPRoundTrip(t *testing.T) {
	m := protegoMachine(t)
	if err := procWrite(t, m, core.ProcPPP, "device /dev/ppp\nuser-routes\nsafe-param foo\n"); err != nil {
		t.Fatal(err)
	}
	data, err := m.K.FS.ReadFile(vfs.RootCred, core.ProcPPP)
	if err != nil || !strings.Contains(string(data), "safe-param foo") || !strings.Contains(string(data), "user-routes") {
		t.Fatalf("ppp read: %q %v", data, err)
	}
}

// --- raw sockets (referenced by the Table 4 catalog) ---

func TestRawSocketFiltering(t *testing.T) {
	m := protegoMachine(t)
	alice := session(t, m, "alice")
	sock, err := m.K.Socket(alice, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_ICMP)
	if err != nil {
		t.Fatal(err)
	}
	// Benign ICMP passes.
	echo := &netstack.Packet{Dst: m.K.Net.HostIP(), Proto: netstack.IPPROTO_ICMP,
		ICMPType: netstack.ICMPEchoRequest, Payload: []byte("hi")}
	if err := m.K.SendTo(alice, sock, echo); err != nil {
		t.Fatalf("icmp: %v", err)
	}
	// Fabricated TCP is dropped.
	forged := &netstack.Packet{Dst: m.K.Net.HostIP(), Proto: netstack.IPPROTO_TCP,
		SrcPort: 12345, DstPort: 80}
	if err := m.K.SendTo(alice, sock, forged); err != errno.EPERM {
		t.Fatalf("forged tcp: %v", err)
	}
	// Spoofing another socket's endpoint is dropped even for root's raw
	// sockets.
	root := session(t, m, "root")
	victim, err := m.K.Socket(alice, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.Bind(alice, victim, 8080); err != nil {
		t.Fatal(err)
	}
	rootRaw, err := m.K.Socket(root, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_RAW)
	if err != nil {
		t.Fatal(err)
	}
	spoof := &netstack.Packet{Dst: m.K.Net.HostIP(), Proto: netstack.IPPROTO_TCP,
		SrcPort: 8080, DstPort: 99}
	if err := m.K.SendTo(root, rootRaw, spoof); err != errno.EPERM {
		t.Fatalf("spoofed from root raw: %v", err)
	}
}

func TestRawSocketAblationToggle(t *testing.T) {
	m := protegoMachine(t)
	m.Protego.SetAllowUnprivRaw(false)
	alice := session(t, m, "alice")
	if _, err := m.K.Socket(alice, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_ICMP); err != errno.EPERM {
		t.Fatalf("toggle ignored: %v", err)
	}
}

// --- delegation internals ---

func TestPendingSetuidLifecycle(t *testing.T) {
	m := protegoMachine(t)
	charlie := session(t, m, "charlie") // %wheel NOPASSWD: /bin/ls
	if err := m.K.Setuid(charlie, 0); err != nil {
		t.Fatalf("deferred setuid: %v", err)
	}
	if uid, ok := core.PendingSetuid(charlie); !ok || uid != 0 {
		t.Fatalf("pending: %d %v", uid, ok)
	}
	// Creds unchanged until exec.
	if charlie.EUID() != world.UIDCharlie {
		t.Fatal("privilege before exec")
	}
	// Exec of the whitelisted command applies the pending transition.
	var sawRoot bool
	probe := "/bin/probe-pending"
	m.K.RegisterBinary(probe, func(k *kernel.Kernel, t *kernel.Task) int {
		sawRoot = t.EUID() == 0
		return 0
	})
	if err := m.K.FS.WriteFile(vfs.RootCred, probe, []byte("ELF"), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	// probe is NOT whitelisted: exec must fail with EPERM (no terminal
	// for the su fallback).
	if _, err := m.K.Exec(charlie, probe, []string{probe}, nil); err != errno.EPERM {
		t.Fatalf("non-whitelisted exec: %v", err)
	}
	if _, ok := core.PendingSetuid(charlie); ok {
		t.Fatal("pending survived failed exec")
	}
	// A fresh deferred transition followed by the whitelisted command.
	if err := m.K.Setuid(charlie, 0); err != nil {
		t.Fatal(err)
	}
	code, err := m.K.Exec(charlie, "/bin/ls", []string{"/bin/ls", "/tmp"}, nil)
	if err != nil || code != 0 {
		t.Fatalf("whitelisted exec: code=%d err=%v", code, err)
	}
	_ = sawRoot
}

func TestEnvSanitizedAcrossDeferredTransition(t *testing.T) {
	m := protegoMachine(t)
	charlie := session(t, m, "charlie")
	charlie.Setenv("LD_PRELOAD", "/tmp/evil.so")
	charlie.Setenv("TERM", "vt100")
	var env map[string]string
	// /bin/ls is whitelisted; observe its environment via a wrapper.
	m.K.RegisterBinary("/bin/ls", func(k *kernel.Kernel, t *kernel.Task) int {
		env = t.Env()
		return 0
	})
	if err := m.K.Setuid(charlie, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.K.Exec(charlie, "/bin/ls", []string{"/bin/ls"}, copyEnv(charlie.Env())); err != nil {
		t.Fatal(err)
	}
	if env["LD_PRELOAD"] != "" {
		t.Fatal("LD_PRELOAD crossed the transition")
	}
	if env["TERM"] != "vt100" {
		t.Fatal("env_keep variable lost")
	}
}

func copyEnv(in map[string]string) map[string]string {
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// --- recency ---

func TestRecencyExpiryForcesReauth(t *testing.T) {
	m := protegoMachine(t)
	now := time.Now()
	m.Auth.SetClock(func() time.Time { return now })
	alice := session(t, m, "alice")
	prompts := 0
	alice.Asker = func(string) string { prompts++; return world.AlicePassword }
	if err := m.K.Setuid(alice, 0); err != nil {
		t.Fatal(err)
	}
	if prompts != 1 {
		t.Fatalf("prompts = %d", prompts)
	}
	// Do it again within the window from a fresh fork: stamp inherited.
	fresh := m.K.Fork(alice)
	fresh.SetUserCreds(kernel.UserCreds(world.UIDAlice, world.GIDUsers, world.GIDWheel, world.GIDOps))
	if err := m.K.Setuid(fresh, 0); err != nil {
		t.Fatal(err)
	}
	if prompts != 1 {
		t.Fatalf("re-prompted within window: %d", prompts)
	}
	// After the window, authentication is demanded again.
	now = now.Add(6 * time.Minute)
	again := m.K.Fork(alice)
	again.SetUserCreds(kernel.UserCreds(world.UIDAlice, world.GIDUsers, world.GIDWheel, world.GIDOps))
	if err := m.K.Setuid(again, 0); err != nil {
		t.Fatal(err)
	}
	if prompts != 2 {
		t.Fatalf("expiry ignored: prompts = %d", prompts)
	}
}

// --- identity cache ---

func TestIdentityCacheInvalidation(t *testing.T) {
	m := protegoMachine(t)
	if groups, ok := m.Protego.ResolveGroups(world.UIDAlice); !ok || len(groups) != 2 {
		t.Fatalf("alice groups: %v %v", groups, ok)
	}
	// Add dave behind the cache's back.
	data, _ := m.K.FS.ReadFile(vfs.RootCred, "/etc/passwd")
	updated := string(data) + "dave:x:1003:100:Dave:/home/dave:/bin/sh\n"
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/passwd", []byte(updated), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Protego.ResolveGroups(1003); ok {
		t.Fatal("stale cache resolved unknown uid")
	}
	m.Protego.InvalidateIdentity()
	if _, ok := m.Protego.ResolveGroups(1003); !ok {
		t.Fatal("invalidation did not refresh")
	}
}

// TestIdentityCacheTransientFault: a read error while refreshing the
// identity cache fails the check in hand closed, but must not be cached —
// the next check re-reads the databases and delegation works again.
func TestIdentityCacheTransientFault(t *testing.T) {
	m := protegoMachine(t)
	charlie := session(t, m, "charlie") // %wheel NOPASSWD: /bin/ls
	m.Protego.InvalidateIdentity()
	in := faultinject.New(faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: faultinject.SiteVFSReadFile, Action: faultinject.ActErr, Err: errno.EIO, Nth: 1},
	}})
	m.SetFaultInjector(in)
	if err := m.K.Setuid(charlie, 0); err != errno.EPERM {
		t.Fatalf("setuid during read fault: got %v, want EPERM", err)
	}
	if in.Injections() != 1 {
		t.Fatalf("injections = %d, want 1", in.Injections())
	}
	m.SetFaultInjector(nil)
	if err := m.K.Setuid(charlie, 0); err != nil {
		t.Fatalf("setuid after the fault cleared: %v", err)
	}
}

// --- file grants ---

func TestFileGrantOnlyForWhitelistedBinary(t *testing.T) {
	m := protegoMachine(t)
	alice := session(t, m, "alice")
	// Reading the host key via the ssh-keysign binary works (world test
	// covers it); directly it must not, nor may another binary gain
	// write access.
	if _, err := m.K.ReadFile(alice, userspace.HostKeyPath); err == nil {
		t.Fatal("direct host key read")
	}
	if err := m.K.WriteFile(alice, userspace.HostKeyPath, []byte("evil")); err == nil {
		t.Fatal("host key write")
	}
}

// --- Table 4 catalog ---

func TestCatalogWellFormed(t *testing.T) {
	if len(core.Catalog) != 10 {
		t.Fatalf("catalog rows = %d, want 10 (Table 4)", len(core.Catalog))
	}
	for _, e := range core.Catalog {
		if e.Interface == "" || e.KernelPolicy == "" || e.SystemPolicy == "" || e.Approach == "" {
			t.Errorf("incomplete row: %+v", e)
		}
		if len(e.UsedBy) == 0 {
			t.Errorf("%s: no users", e.Interface)
		}
	}
	out := core.FormatCatalog()
	if !strings.Contains(out, "mount, umount") || !strings.Contains(out, "KMS") {
		t.Fatalf("render: %.200q", out)
	}
}
