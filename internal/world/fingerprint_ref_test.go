package world

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"protego/internal/accountdb"
	"protego/internal/kernel"
	"protego/internal/vfs"
)

// referenceFingerprint is the straightforward serializer Fingerprint must
// reproduce byte for byte: a full FS.Walk with per-inode fmt formatting
// and a per-user DB.ShadowHash, with no reuse of snapshot renderings.
func referenceFingerprint(m *Machine) string {
	var b strings.Builder

	b.WriteString("[tasks]\n")
	var taskLines []string
	for _, t := range m.K.Tasks() {
		c := t.Creds()
		groups := append([]int(nil), c.Groups...)
		sort.Ints(groups)
		taskLines = append(taskLines, fmt.Sprintf(
			"uid=%d/%d/%d/%d gid=%d/%d/%d/%d groups=%v caps=%d/%d",
			c.RUID, c.EUID, c.SUID, c.FUID,
			c.RGID, c.EGID, c.SGID, c.FGID,
			groups, uint64(c.Effective), uint64(c.Permitted)))
	}
	sort.Strings(taskLines)
	for _, l := range taskLines {
		b.WriteString(l)
		b.WriteByte('\n')
	}

	b.WriteString("[vfs]\n")
	m.K.FS.Walk(func(path string, ino *vfs.Inode) bool {
		if fingerprintSkip[path] {
			return false
		}
		mode := ino.Mode
		switch {
		case setuidBinaries[path]:
			mode &^= vfs.ModeSetuid | vfs.ModeSetgid
		case path == "/dev/ppp":
			mode &^= vfs.ModeMask
		}
		fmt.Fprintf(&b, "%s %o %d:%d", path, uint32(mode), ino.UID, ino.GID)
		switch {
		case ino.IsProc():
			// Synthetic files have dynamic contents; identity only.
		case mode.IsDevice():
			fmt.Fprintf(&b, " dev=%d,%d", ino.Major, ino.Minor)
		case mode.IsSymlink():
			fmt.Fprintf(&b, " -> %s", string(ino.Data))
		case mode.IsRegular() && !fingerprintSemanticContent[path]:
			h := fnv.New64a()
			h.Write(ino.Data)
			fmt.Fprintf(&b, " len=%d hash=%x", len(ino.Data), h.Sum64())
		}
		b.WriteByte('\n')
		return true
	})

	b.WriteString("[accounts]\n")
	referenceWriteAccounts(&b, m)

	b.WriteString("[mounts]\n")
	b.WriteString(m.K.FS.FormatMtab())

	b.WriteString("[ports]\n")
	for _, p := range m.K.Net.BoundPorts() {
		fmt.Fprintf(&b, "%d/%d uid=%d\n", p.Proto, p.Port, p.OwnerUID)
	}

	b.WriteString("[routes]\n")
	var routeLines []string
	for _, r := range m.K.Net.Routes() {
		routeLines = append(routeLines, r.String())
	}
	sort.Strings(routeLines)
	for _, l := range routeLines {
		b.WriteString(l)
		b.WriteByte('\n')
	}

	b.WriteString("[ifaces]\n")
	var ifaceLines []string
	for _, iface := range m.K.Net.Ifaces() {
		var params []string
		for k, v := range iface.Params {
			params = append(params, k+"="+v)
		}
		sort.Strings(params)
		ifaceLines = append(ifaceLines, fmt.Sprintf("%s up=%v inuse=%v owner=%d params=%v",
			iface.Name, iface.Up, iface.InUse, iface.Owner, params))
	}
	sort.Strings(ifaceLines)
	for _, l := range ifaceLines {
		b.WriteString(l)
		b.WriteByte('\n')
	}

	return b.String()
}

// referenceWriteAccounts serializes the parsed account databases in
// sorted order, looking each user's hash up with DB.ShadowHash.
func referenceWriteAccounts(b *strings.Builder, m *Machine) {
	users, err := m.DB.Users()
	if err != nil {
		fmt.Fprintf(b, "users-error: %v\n", err)
	} else {
		lines := make([]string, 0, len(users))
		for i := range users {
			u := &users[i]
			hash, herr := m.DB.ShadowHash(u.Name)
			if herr != nil {
				hash = fmt.Sprintf("shadow-error:%v", herr)
			}
			lines = append(lines, fmt.Sprintf("user %s:%d:%d:%s:%s:%s shadow=%s",
				u.Name, u.UID, u.GID, u.Gecos, u.Home, u.Shell, hash))
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	groups, err := m.DB.Groups()
	if err != nil {
		fmt.Fprintf(b, "groups-error: %v\n", err)
		return
	}
	lines := make([]string, 0, len(groups))
	for i := range groups {
		g := &groups[i]
		members := append([]string(nil), g.Members...)
		sort.Strings(members)
		lines = append(lines, fmt.Sprintf("group %s:%d:%s:%v", g.Name, g.GID, g.Password, members))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
}

// fpStep is one named mutation for the reference-equality test. Ops go
// straight through the VFS with root credentials and ignore errors: an op
// on a path an earlier op removed or renamed away simply fails, and the
// failure is part of the sequence.
type fpStep struct {
	name string
	do   func(m *Machine, r *rand.Rand) string
}

var (
	// fpFiles mixes files inside sealed directories, new files, a studied
	// setuid binary, the fragment-tree skip paths and /dev/ppp.
	fpFiles = []string{
		"/etc/fstab", "/home/alice/file", "/tmp/scratch", "/usr/bin/passwd",
		"/usr/lib/chromium/chromium-sandbox", "/usr/lib/chromium/notes",
		"/sys/block/dm-0/dm/uuid", "/var/log/syslog", "/var/run/sudo/alice",
		"/dev/ppp", "/etc/passwds/alice",
	}
	fpDirs = []string{"/etc/d", "/usr/lib/chromium/d", "/sys/block/dm-0/x", "/var/run/d", "/home/bob/d"}
	// fpMounts are sealed directories that hold sealed subdirectories.
	fpMounts = []string{"/usr/lib", "/sys/block", "/var", "/etc/ppp"}
	// fpRenames pair sealed directories with names that do not exist yet;
	// renaming one moves its sealed subtree to new paths.
	fpRenames = [][2]string{
		{"/usr/lib", "/usr/lib2"}, {"/sys/block", "/sys/blk"}, {"/var", "/var2"}, {"/etc", "/etc2"},
	}
	fpModes = []vfs.Mode{0o600, 0o644, 0o666, 0o4755}
	fpUsers = []string{"alice", "bob", "charlie"}
)

func pickOf[T any](r *rand.Rand, pool []T) T { return pool[r.Intn(len(pool))] }

var fpSteps = []fpStep{
	{"write", func(m *Machine, r *rand.Rand) string {
		p := pickOf(r, fpFiles)
		_ = m.K.FS.WriteFile(vfs.RootCred, p, []byte(fmt.Sprintf("w%d", r.Intn(1000))), 0o644, 0, 0)
		return p
	}},
	{"chmod", func(m *Machine, r *rand.Rand) string {
		p, mode := pickOf(r, fpFiles), pickOf(r, fpModes)
		_ = m.K.FS.Chmod(vfs.RootCred, p, mode)
		return fmt.Sprintf("%s %o", p, mode)
	}},
	{"mkdir", func(m *Machine, r *rand.Rand) string {
		p := pickOf(r, fpDirs)
		_, _ = m.K.FS.Mkdir(vfs.RootCred, p, 0o755, 0, 0)
		return p
	}},
	{"unlink", func(m *Machine, r *rand.Rand) string {
		p := pickOf(r, append(fpFiles[:len(fpFiles):len(fpFiles)], fpDirs...))
		_ = m.K.FS.Remove(vfs.RootCred, p)
		return p
	}},
	{"mount", func(m *Machine, r *rand.Rand) string {
		p := pickOf(r, fpMounts)
		_ = m.K.FS.AttachMount(vfs.RootCred, &vfs.Mount{Device: "tmpfs", Point: p, FSType: "tmpfs"})
		return p
	}},
	{"umount", func(m *Machine, r *rand.Rand) string {
		p := pickOf(r, fpMounts)
		_, _ = m.K.FS.DetachMount(vfs.RootCred, p)
		return p
	}},
	{"rename", func(m *Machine, r *rand.Rand) string {
		pair := pickOf(r, fpRenames)
		from, to := pair[0], pair[1]
		if r.Intn(2) == 0 {
			from, to = to, from
		}
		_ = m.K.FS.Rename(vfs.RootCred, from, to)
		return from + " -> " + to
	}},
	{"fragment", func(m *Machine, r *rand.Rand) string {
		// A shadow fragment edited behind monitord's back: no sync runs.
		user := pickOf(r, fpUsers)
		se := accountdb.ShadowEntry{Name: user, Hash: fmt.Sprintf("$6$frag%d", r.Intn(1000))}
		line := se.Line() + "\n"
		_ = m.K.FS.WriteFile(vfs.RootCred, accountdb.ShadowsDir+"/"+user, []byte(line), 0o600, 0, 0)
		return user
	}},
}

// checkAgainstReference runs n seeded random steps on m and compares
// Fingerprint with the reference serializer before the first step and
// after each one.
func checkAgainstReference(t *testing.T, label string, m *Machine, seed int64, n int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	what := "clone"
	for i := 0; ; i++ {
		if got, want := m.Fingerprint(), referenceFingerprint(m); got != want {
			t.Fatalf("%s seed %d, after step %d (%s): Fingerprint differs from the reference:\n%s",
				label, seed, i, what, firstLineDiff(got, want))
		}
		if i == n {
			return
		}
		st := fpSteps[r.Intn(len(fpSteps))]
		what = st.name + " " + st.do(m, r)
	}
}

func firstLineDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i, g, w)
		}
	}
	return "(no line differs)"
}

// Fingerprint must render exactly what the straightforward serializer
// renders, on clones of both images and on a clone of a re-snapshotted
// clone, across writes, chmods (setuid binary and /dev/ppp included),
// mkdir, unlink, mounts over sealed directories, renames of sealed
// directories and fragment edits with no sync. The renames move sealed
// subtrees the index knows to new paths, so an index that matched on the
// inode alone would fail here.
func TestFingerprintMatchesReference(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		golden, err := Build(Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := golden.Fingerprint(), referenceFingerprint(golden); got != want {
			t.Fatalf("%s golden: %s", mode, firstLineDiff(got, want))
		}
		snap := golden.Snapshot()
		for seed := int64(1); seed <= 6; seed++ {
			m, err := snap.Clone()
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, mode.String(), m, seed, 80)
		}
		if len(snap.index().spans) == 0 {
			t.Fatalf("%s: snapshot index recorded no sealed subtrees", mode)
		}

		// The second snapshot seals the first clone's private inodes too;
		// its index covers both generations.
		mid, err := snap.Clone()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, mode.String()+" mid", mid, 100, 30)
		linkOut(t, mid, accountdb.GroupFile, "/tmp/group")
		if mode == kernel.ModeProtego {
			linkOut(t, mid, accountdb.ShadowsDir+"/bob", "/tmp/bob-shadow")
		}
		resnap := mid.Snapshot()

		// The account files now reach outside their own inodes, so the
		// [accounts] text must not be reused once a link target changes.
		first, err := resnap.Clone()
		if err != nil {
			t.Fatal(err)
		}
		first.Fingerprint()
		for _, target := range []string{"/tmp/group", "/tmp/bob-shadow"} {
			_ = first.K.FS.WriteFile(vfs.RootCred, target, []byte("w:x:1:\n"), 0o644, 0, 0)
			if got, want := first.Fingerprint(), referenceFingerprint(first); got != want {
				t.Fatalf("%s: after writing %s behind a symlink: %s", mode, target, firstLineDiff(got, want))
			}
		}
		for seed := int64(101); seed <= 103; seed++ {
			m, err := resnap.Clone()
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, mode.String()+" re-snapshot", m, seed, 80)
		}
	}
}

// linkOut moves the file at path to target and leaves a symlink to it.
func linkOut(t *testing.T, m *Machine, path, target string) {
	t.Helper()
	fs := m.K.FS
	data, err := fs.ReadFile(vfs.RootCred, path)
	if err == nil {
		err = fs.WriteFile(vfs.RootCred, target, data, 0o644, 0, 0)
	}
	if err == nil {
		err = fs.Remove(vfs.RootCred, path)
	}
	if err == nil {
		err = fs.Symlink(vfs.RootCred, target, path, 0, 0)
	}
	if err != nil {
		t.Fatalf("link %s out to %s: %v", path, target, err)
	}
}
