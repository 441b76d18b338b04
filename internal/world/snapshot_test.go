package world

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"protego/internal/core"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/trace"
	"protego/internal/userspace"
	"protego/internal/vfs"
)

// TestSnapshotFingerprintEquality is the tentpole guarantee: a fresh
// clone is indistinguishable from its parent under the canonical
// fingerprint, in both modes.
func TestSnapshotFingerprintEquality(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		t.Run(mode.String(), func(t *testing.T) {
			parent, err := Build(Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			snap := parent.Snapshot()
			clone, err := snap.Clone()
			if err != nil {
				t.Fatal(err)
			}
			pf, cf := parent.Fingerprint(), clone.Fingerprint()
			if pf != cf {
				t.Fatalf("parent/clone fingerprints diverge:\n%s", firstDiff(pf, cf))
			}
		})
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  parent: %s\n  clone:  %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(al), len(bl))
}

// clonePair builds a Protego golden machine and two clones of it.
func clonePair(t *testing.T) (*Machine, *Machine, *Machine) {
	t.Helper()
	parent, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	snap := parent.Snapshot()
	a, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return parent, a, b
}

// TestCloneIsolationFiles: file creation, overwrite, append, chmod, and
// remove in one clone are invisible to the parent and the sibling.
func TestCloneIsolationFiles(t *testing.T) {
	parent, a, b := clonePair(t)
	base := parent.Fingerprint()
	bBase := b.Fingerprint()

	fs := a.K.FS
	if err := fs.WriteFile(vfs.RootCred, "/etc/tenant-marker", []byte("a"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile(vfs.RootCred, "/etc/motd", []byte("tenant A was here\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(vfs.RootCred, "/etc/shells", []byte("/bin/tenant-sh\n"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod(vfs.RootCred, "/etc/fstab", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(vfs.RootCred, "/etc/motd"); err != nil {
		t.Fatal(err)
	}

	if parent.K.FS.Exists(vfs.RootCred, "/etc/tenant-marker") {
		t.Fatal("marker leaked into parent")
	}
	if b.K.FS.Exists(vfs.RootCred, "/etc/tenant-marker") {
		t.Fatal("marker leaked into sibling")
	}
	data, err := parent.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if err != nil || strings.Contains(string(data), "tenant A") {
		t.Fatalf("parent motd affected: %q err=%v", data, err)
	}
	if got := parent.Fingerprint(); got != base {
		t.Fatalf("parent fingerprint changed:\n%s", firstDiff(base, got))
	}
	if got := b.Fingerprint(); got != bBase {
		t.Fatalf("sibling fingerprint changed:\n%s", firstDiff(bBase, got))
	}
}

// TestCloneIsolationAppendNoScribble: appends on a shared file must not
// scribble on the shared backing array (capacity clamp check).
func TestCloneIsolationAppendNoScribble(t *testing.T) {
	parent, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	before, err := parent.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if err != nil {
		t.Fatal(err)
	}
	snap := parent.Snapshot()
	a, _ := snap.Clone()
	b, _ := snap.Clone()
	if err := a.K.FS.AppendFile(vfs.RootCred, "/etc/motd", []byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	if err := b.K.FS.AppendFile(vfs.RootCred, "/etc/motd", []byte("BBBB")); err != nil {
		t.Fatal(err)
	}
	after, _ := parent.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if string(after) != string(before) {
		t.Fatalf("parent motd mutated: %q -> %q", before, after)
	}
	ad, _ := a.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if string(ad) != string(before)+"AAAA" {
		t.Fatalf("clone A append wrong: %q", ad)
	}
	bd, _ := b.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if string(bd) != string(before)+"BBBB" {
		t.Fatalf("clone B append wrong: %q", bd)
	}
}

// TestCloneFdOverwriteNoScribble: a descriptor write that does not grow
// the file overwrites Data in place, so the clone's copy-up must own its
// bytes rather than share the snapshot's backing array.
func TestCloneFdOverwriteNoScribble(t *testing.T) {
	parent, a, b := clonePair(t)
	before, err := parent.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if err != nil || len(before) < 2 {
		t.Fatalf("motd: %q %v", before, err)
	}
	root, err := a.Session("root")
	if err != nil {
		t.Fatal(err)
	}
	fd, err := a.K.Open(root, "/etc/motd", kernel.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.K.Write(root, fd, []byte("X")); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Machine{"parent": parent, "sibling": b} {
		if got, _ := m.K.FS.ReadFile(vfs.RootCred, "/etc/motd"); string(got) != string(before) {
			t.Fatalf("%s motd scribbled: %q -> %q", name, before, got)
		}
	}
}

// TestCloneOpenUnlinkWrite: the classic tempfile idiom — open, unlink,
// then write the fd — performed in a clone. The unlinked descriptor
// points at a snapshot-shared sealed inode with no path left to copy up
// through; the write must land on a private fd-local copy, never on the
// golden image the parent and every sibling share.
func TestCloneOpenUnlinkWrite(t *testing.T) {
	parent, a, b := clonePair(t)
	base := parent.Fingerprint()
	bBase := b.Fingerprint()
	before, err := parent.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if err != nil {
		t.Fatal(err)
	}

	root := a.K.Fork(a.Init)
	defer a.K.Exit(root, 0)
	fd, err := a.K.Open(root, "/etc/motd", kernel.O_WRONLY|kernel.O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.K.Unlink(root, "/etc/motd"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.K.Write(root, fd, []byte("tempfile secret")); err != nil {
		t.Fatalf("write to unlinked fd: %v", err)
	}

	after, err := parent.K.FS.ReadFile(vfs.RootCred, "/etc/motd")
	if err != nil || string(after) != string(before) {
		t.Fatalf("unlinked-fd write leaked into golden image: %q err=%v", after, err)
	}
	if got := parent.Fingerprint(); got != base {
		t.Fatalf("parent fingerprint changed:\n%s", firstDiff(base, got))
	}
	if got := b.Fingerprint(); got != bBase {
		t.Fatalf("sibling fingerprint changed:\n%s", firstDiff(bBase, got))
	}
}

// TestCloneFdWriteAfterReplace: a descriptor whose path entry has been
// replaced by a different file must not rebind to the stranger — the
// fd's writes stay fd-local and the new occupant keeps its own contents.
func TestCloneFdWriteAfterReplace(t *testing.T) {
	parent, a, _ := clonePair(t)
	base := parent.Fingerprint()

	root := a.K.Fork(a.Init)
	defer a.K.Exit(root, 0)
	fd, err := a.K.Open(root, "/etc/shells", kernel.O_WRONLY|kernel.O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.K.Unlink(root, "/etc/shells"); err != nil {
		t.Fatal(err)
	}
	if err := a.K.WriteFile(root, "/etc/shells", []byte("stranger\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.K.Write(root, fd, []byte("fd data")); err != nil {
		t.Fatalf("write to replaced fd: %v", err)
	}
	data, err := a.K.FS.ReadFile(vfs.RootCred, "/etc/shells")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "stranger\n" {
		t.Fatalf("fd write landed on the unrelated file now at its path: %q", data)
	}
	if got := parent.Fingerprint(); got != base {
		t.Fatalf("parent fingerprint changed:\n%s", firstDiff(base, got))
	}
}

// TestCloneIsolationTasks: forks and exits in a clone never appear in the
// parent's task table.
func TestCloneIsolationTasks(t *testing.T) {
	parent, a, _ := clonePair(t)
	parentCount := parent.K.TaskCount()
	sess, err := a.Session("alice")
	if err != nil {
		t.Fatal(err)
	}
	if parent.K.TaskCount() != parentCount {
		t.Fatalf("fork in clone changed parent task count: %d -> %d", parentCount, parent.K.TaskCount())
	}
	if parent.K.Task(sess.PID()) != nil {
		t.Fatal("clone session pid resolves in parent")
	}
	// Credential changes in the clone stay in the clone.
	code, _, _, err := a.Run(sess, []string{"/usr/bin/id"}, nil)
	if err != nil || code != 0 {
		t.Fatalf("id in clone: code=%d err=%v", code, err)
	}
}

// TestCloneIsolationMounts: a whitelisted user mount in the clone leaves
// the parent's mount table and fingerprint untouched.
func TestCloneIsolationMounts(t *testing.T) {
	parent, a, b := clonePair(t)
	base := parent.Fingerprint()
	sess, err := a.Session("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.K.Mount(sess, "/dev/cdrom", "/cdrom", "iso9660", []string{"ro"}); err != nil {
		t.Fatalf("whitelisted mount in clone failed: %v", err)
	}
	if len(parent.K.FS.Mounts()) != 0 {
		t.Fatalf("parent mount table grew: %v", parent.K.FS.Mounts())
	}
	if len(b.K.FS.Mounts()) != 0 {
		t.Fatal("sibling mount table grew")
	}
	if got := parent.Fingerprint(); got != base {
		t.Fatalf("parent fingerprint changed:\n%s", firstDiff(base, got))
	}
	if err := a.K.Umount(sess, "/cdrom"); err == nil {
		// umount by mounter is allowed ("user" option); after detach the
		// parent must still be pristine.
		if got := parent.Fingerprint(); got != base {
			t.Fatal("parent fingerprint changed after clone umount")
		}
	}
}

// TestCloneIsolationPorts: port binds in a clone never occupy the
// parent's or a sibling's port space.
func TestCloneIsolationPorts(t *testing.T) {
	parent, a, b := clonePair(t)
	bindOn := func(m *Machine) error {
		root := m.K.Fork(m.Init)
		defer m.K.Exit(root, 0)
		sock, err := m.K.Socket(root, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
		if err != nil {
			return err
		}
		return m.K.Bind(root, sock, 8080)
	}
	if err := bindOn(a); err != nil {
		t.Fatalf("bind in clone A: %v", err)
	}
	// The same port is free in the sibling and the parent.
	if err := bindOn(b); err != nil {
		t.Fatalf("bind in clone B hit clone A's port: %v", err)
	}
	if err := bindOn(parent); err != nil {
		t.Fatalf("bind in parent hit a clone's port: %v", err)
	}
}

// TestCloneIsolationPolicyReload: a monitord-style policy reload in the
// clone (new fstab rule synced into the kernel) must not alter the
// parent's in-kernel whitelist or its /proc files.
func TestCloneIsolationPolicyReload(t *testing.T) {
	parent, a, b := clonePair(t)
	parentRules := len(parent.Protego.MountRules())
	base := parent.Fingerprint()

	extra := "/dev/sde1  /mnt/backup  ext4  rw,user,noauto  0 0\n"
	if err := a.K.FS.AppendFile(vfs.RootCred, "/etc/fstab", []byte(extra)); err != nil {
		t.Fatal(err)
	}
	if err := a.Monitor.SyncMounts(); err != nil {
		t.Fatal(err)
	}
	if len(a.Protego.MountRules()) <= parentRules {
		t.Fatalf("clone reload did not add rule: %d", len(a.Protego.MountRules()))
	}
	if len(parent.Protego.MountRules()) != parentRules {
		t.Fatalf("parent whitelist changed: %d -> %d", parentRules, len(parent.Protego.MountRules()))
	}
	if len(b.Protego.MountRules()) != parentRules {
		t.Fatal("sibling whitelist changed")
	}
	// The parent's /proc/protego/mounts must render the old policy.
	out, err := parent.K.FS.ReadFile(vfs.RootCred, "/proc/protego/mounts")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "/dev/sde1") {
		t.Fatal("clone policy visible through parent /proc")
	}
	if got := parent.Fingerprint(); got != base {
		t.Fatalf("parent fingerprint changed:\n%s", firstDiff(base, got))
	}
}

// TestCloneTraceIsolation: syscalls in a clone land on the clone's
// tracer, not the parent's.
func TestCloneTraceIsolation(t *testing.T) {
	parent, a, _ := clonePair(t)
	before := parent.K.Trace.Stats().Emitted
	sess, err := a.Session("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, _, err := a.Run(sess, []string{"/usr/bin/id"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := parent.K.Trace.Stats().Emitted; got != before {
		t.Fatalf("clone syscalls traced on parent: %d -> %d", before, got)
	}
	if a.K.Trace.Stats().Emitted == 0 {
		t.Fatal("clone tracer saw nothing")
	}
}

// TestCloneCountersIsolation: a user mount, a ping and a sudo on one side
// of a golden clone count on that side's tracer only. The other side's
// decision counters (netfilter rule counts among them), fast-path
// counters and Protego policy outcomes stay put, whichever side runs the
// flows.
func TestCloneCountersIsolation(t *testing.T) {
	parent, clone, _ := clonePair(t)
	type counts struct {
		ctrs  map[trace.CounterKey]uint64
		fast  map[string]uint64
		stats core.StatsSnapshot
	}
	read := func(m *Machine) counts {
		return counts{m.K.Trace.Counters(), m.K.Trace.FastpathCounters(), m.Protego.Stats.Snapshot()}
	}
	echo := trace.CounterKey{Hook: "netfilter:OUTPUT", Module: "allow-unpriv-icmp-echo", Decision: "ACCEPT"}
	for _, side := range []struct {
		name       string
		run, watch *Machine
	}{{"clone", clone, parent}, {"parent", parent, clone}} {
		watched, ran := read(side.watch), read(side.run)
		alice := session(t, side.run, "alice")
		for _, flow := range []struct {
			argv  []string
			asker func(string) string
		}{
			{[]string{userspace.BinMount, "/dev/cdrom", "/cdrom"}, nil},
			{[]string{userspace.BinPing, "-c", "1", "10.0.0.2"}, nil},
			{[]string{userspace.BinSudo, "/usr/bin/id"}, AnswerWith(AlicePassword)},
		} {
			if code, out, errOut, err := side.run.Run(alice, flow.argv, flow.asker); code != 0 || err != nil {
				t.Fatalf("%s: %v = %d (%v): %q %q", side.name, flow.argv, code, err, out, errOut)
			}
		}
		if got := read(side.watch); !reflect.DeepEqual(got, watched) {
			t.Fatalf("flows on the %s moved the other side's counters:\nbefore %+v\nafter  %+v", side.name, watched, got)
		}
		got := read(side.run)
		if got.ctrs[echo] <= ran.ctrs[echo] || got.fast["mountidx.hit"] <= ran.fast["mountidx.hit"] ||
			got.stats.MountGrants <= ran.stats.MountGrants || got.stats.SetuidGrants <= ran.stats.SetuidGrants {
			t.Fatalf("flows on the %s did not count there:\nbefore %+v\nafter  %+v", side.name, ran, got)
		}
	}
}

// TestConcurrentClones exercises concurrent stamping and mutation from
// one snapshot; run under -race this is the data-race gate for the COW
// machinery.
func TestConcurrentClones(t *testing.T) {
	parent, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	base := parent.Fingerprint()
	snap := parent.Snapshot()
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m, err := snap.Clone()
			if err != nil {
				errs <- err
				return
			}
			marker := fmt.Sprintf("/tmp/tenant-%d", id)
			if err := m.K.FS.WriteFile(vfs.RootCred, marker, []byte("x"), 0o644, 0, 0); err != nil {
				errs <- err
				return
			}
			if err := m.K.FS.AppendFile(vfs.RootCred, "/etc/motd", []byte("hi\n")); err != nil {
				errs <- err
				return
			}
			sess, err := m.Session("alice")
			if err != nil {
				errs <- err
				return
			}
			if code, _, serr, err := m.Run(sess, []string{"/usr/bin/id"}, nil); err != nil || code != 0 {
				errs <- fmt.Errorf("id: code=%d err=%v stderr=%s", code, err, serr)
				return
			}
			for j := 0; j < n; j++ {
				if j != id && m.K.FS.Exists(vfs.RootCred, fmt.Sprintf("/tmp/tenant-%d", j)) {
					errs <- fmt.Errorf("tenant %d sees tenant %d's marker", id, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := parent.Fingerprint(); got != base {
		t.Fatalf("parent fingerprint changed under concurrent clones:\n%s", firstDiff(base, got))
	}
}

// TestSnapshotRepeated: the golden machine can keep mutating between
// snapshots; each clone reflects the parent state at its own clone time.
func TestSnapshotRepeated(t *testing.T) {
	parent, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	snap := parent.Snapshot()
	a, _ := snap.Clone()
	if err := parent.K.FS.WriteFile(vfs.RootCred, "/etc/generation", []byte("2"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	b, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if a.K.FS.Exists(vfs.RootCred, "/etc/generation") {
		t.Fatal("earlier clone sees later parent write")
	}
	if !b.K.FS.Exists(vfs.RootCred, "/etc/generation") {
		t.Fatal("later clone missing parent write")
	}
	if pf, bf := parent.Fingerprint(), b.Fingerprint(); pf != bf {
		t.Fatalf("fingerprint mismatch after re-clone:\n%s", firstDiff(pf, bf))
	}
}
