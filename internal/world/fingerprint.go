package world

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"protego/internal/accountdb"
	"protego/internal/errno"
	"protego/internal/vfs"
)

// Fingerprint serializes the machine's observable state into one canonical
// string, designed so a freshly built baseline image and a freshly built
// Protego image produce the *same* fingerprint, and stay equal as long as
// identical workloads have identical effects. It is the single state
// serializer shared by the equivalence corpus (internal/equiv) and the
// differential fuzzer (internal/difffuzz).
//
// Sections, in order: live-task credentials (a sorted multiset — pids are
// excluded because the two images may fork different child counts inside a
// utility), the VFS tree (type, permissions, ownership, device numbers,
// symlink targets, and a content hash for regular files), the account
// databases (parsed and sorted, rather than raw bytes, because the Protego
// fragment sync rewrites the legacy files in a different record order), the
// mount table, the port-binding table, the routing table, and interface
// state.
//
// Normalizations (all are by-design differences between the two *images*,
// not behavioral divergences):
//
//   - /proc is skipped: /proc/protego exists only on Protego and the trace
//     files are dynamic.
//   - /etc/passwds, /etc/shadows, /etc/groups are skipped (the fragmented
//     database exists only on Protego), and the legacy files are compared
//     as parsed records. Fingerprint only reads: a caller that needs the
//     fragments converged into the legacy view runs the monitoring
//     daemon's sync first.
//   - /var/run/sudo is skipped: the baseline sudo keeps authentication
//     recency in timestamp files, Protego keeps it in the kernel task
//     struct (§4.3), so the bookkeeping location differs by design.
//   - The setuid/setgid bits of the studied binaries are masked — their
//     eradication IS the system under test (Table 1).
//   - /dev/ppp permission bits are masked (0600 baseline vs 0666 Protego,
//     the §4.1.2 relaxation).
//
// On a clone, sealed directories the snapshot's index knows at the same
// path are copied from the snapshot's rendering instead of walked, and the
// [accounts] text is reused while the account files are still the
// snapshot's own (see fpIndex).
func (m *Machine) Fingerprint() string {
	var idx *fpIndex
	if m.snap != nil {
		idx = m.snap.index()
	}
	var b []byte
	if idx != nil {
		b = make([]byte, 0, len(idx.text)+2048)
	}

	b = append(b, "[tasks]\n"...)
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
	b = appendSorted(b, taskLines)

	b = append(b, "[vfs]\n"...)
	var acct acctInodes
	m.K.FS.Walk(func(path string, ino *vfs.Inode) bool {
		acct.note(path, ino)
		if fingerprintSkip[path] {
			return false
		}
		if idx != nil && ino.Sealed() && ino.Mode.IsDir() {
			if text, ok := idx.subtree(ino, path); ok {
				b = append(b, text...)
				acct.inherit(path, &idx.acct)
				return false
			}
		}
		b = appendInode(b, path, ino)
		return true
	})

	b = append(b, "[accounts]\n"...)
	b = m.appendAccounts(b, idx, &acct)

	b = append(b, "[mounts]\n"...)
	b = append(b, m.K.FS.FormatMtab()...)

	b = append(b, "[ports]\n"...)
	for _, p := range m.K.Net.BoundPorts() {
		b = fmt.Appendf(b, "%d/%d uid=%d\n", p.Proto, p.Port, p.OwnerUID)
	}

	b = append(b, "[routes]\n"...)
	var routeLines []string
	for _, r := range m.K.Net.Routes() {
		routeLines = append(routeLines, r.String())
	}
	b = appendSorted(b, routeLines)

	b = append(b, "[ifaces]\n"...)
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
	b = appendSorted(b, ifaceLines)

	return string(b)
}

// appendSorted sorts lines and appends each, newline-terminated.
func appendSorted(b []byte, lines []string) []byte {
	sort.Strings(lines)
	for _, l := range lines {
		b = append(b, l...)
		b = append(b, '\n')
	}
	return b
}

// appendInode renders one [vfs] line: path, masked mode in octal,
// ownership, and the type-specific identity.
func appendInode(b []byte, path string, ino *vfs.Inode) []byte {
	mode := ino.Mode
	switch {
	case setuidBinaries[path]:
		mode &^= vfs.ModeSetuid | vfs.ModeSetgid
	case path == "/dev/ppp":
		mode &^= vfs.ModeMask
	}
	b = append(b, path...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(mode), 8)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(ino.UID), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(ino.GID), 10)
	switch {
	case ino.IsProc():
		// Synthetic files have dynamic contents; identity only.
	case mode.IsDevice():
		b = append(b, " dev="...)
		b = strconv.AppendInt(b, int64(ino.Major), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(ino.Minor), 10)
	case mode.IsSymlink():
		b = append(b, " -> "...)
		b = append(b, ino.Data...)
	case mode.IsRegular() && !fingerprintSemanticContent[path]:
		b = append(b, " len="...)
		b = strconv.AppendInt(b, int64(len(ino.Data)), 10)
		b = append(b, " hash="...)
		b = strconv.AppendUint(b, fnv64a(ino.Data), 16)
	}
	return append(b, '\n')
}

// fnv64a is hash/fnv's 64-bit FNV-1a, inlined to spare the hasher
// allocation per file.
func fnv64a(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range data {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// fingerprintSkip prunes subtrees that exist on only one image or that hold
// by-design bookkeeping differences (see Fingerprint).
var fingerprintSkip = map[string]bool{
	"/proc":              true,
	"/var/run/sudo":      true,
	accountdb.PasswdsDir: true,
	accountdb.ShadowsDir: true,
	accountdb.GroupsDir:  true,
}

// fingerprintSemanticContent marks files whose contents are compared as
// parsed, sorted records in the [accounts] section instead of raw bytes
// (the fragment sync rewrites them in a different record order).
var fingerprintSemanticContent = map[string]bool{
	accountdb.PasswdFile: true,
	accountdb.ShadowFile: true,
	accountdb.GroupFile:  true,
}

// appendAccounts renders the [accounts] section. acct holds the inodes the
// [vfs] walk found at accountPaths; while they are all the snapshot's own
// (a clone can only share an inode that is sealed), the text is a function
// of the snapshot alone and is rendered once per snapshot, unless an armed
// fault injector may fail the reads. It is filled from the first matching
// clone.
func (m *Machine) appendAccounts(b []byte, idx *fpIndex, acct *acctInodes) []byte {
	if idx == nil || *acct != idx.acct || m.K.FaultInjector() != nil {
		return appendAccounts(b, m)
	}
	c := idx.accounts.Load()
	if c == nil {
		start := len(b)
		b = appendAccounts(b, m)
		idx.accounts.CompareAndSwap(nil, &accountsText{text: string(b[start:]), reusable: accountsReusable(m)})
		return b
	}
	if !c.reusable {
		return appendAccounts(b, m)
	}
	return append(b, c.text...)
}

// appendAccounts serializes the parsed account databases in sorted order.
// Read errors are folded into the fingerprint itself: a missing or corrupt
// database is observable state, and must diverge rather than be skipped.
// A user's hash follows DB.ShadowHash (the per-user fragment first, then
// the legacy shadow file), but the legacy file is read and parsed at most
// once per call.
func appendAccounts(b []byte, m *Machine) []byte {
	users, err := m.DB.Users()
	if err != nil {
		b = fmt.Appendf(b, "users-error: %v\n", err)
	} else {
		var legacy map[string]string
		var legacyErr error
		legacyRead := false
		lines := make([]string, 0, len(users))
		for i := range users {
			u := &users[i]
			hash, ok := fragmentHash(m.K.FS, u.Name)
			if !ok {
				if !legacyRead {
					legacy, legacyErr = legacyHashes(m.K.FS)
					legacyRead = true
				}
				hash, ok = legacy[u.Name]
				switch {
				case legacyErr != nil:
					hash = fmt.Sprintf("shadow-error:%v", legacyErr)
				case !ok:
					hash = fmt.Sprintf("shadow-error:%v", errno.ENOENT)
				}
			}
			lines = append(lines, fmt.Sprintf("user %s:%d:%d:%s:%s:%s shadow=%s",
				u.Name, u.UID, u.GID, u.Gecos, u.Home, u.Shell, hash))
		}
		b = appendSorted(b, lines)
	}
	groups, err := m.DB.Groups()
	if err != nil {
		return fmt.Appendf(b, "groups-error: %v\n", err)
	}
	lines := make([]string, 0, len(groups))
	for i := range groups {
		g := &groups[i]
		members := append([]string(nil), g.Members...)
		sort.Strings(members)
		lines = append(lines, fmt.Sprintf("group %s:%d:%s:%v", g.Name, g.GID, g.Password, members))
	}
	return appendSorted(b, lines)
}

// fragmentHash returns the hash in user's /etc/shadows fragment, if it
// holds exactly one well-formed record.
func fragmentHash(fs *vfs.FS, user string) (string, bool) {
	data, err := fs.ReadFile(vfs.RootCred, accountdb.ShadowsDir+"/"+user)
	if err != nil {
		return "", false
	}
	entries, err := accountdb.ParseShadow(string(data))
	if err != nil || len(entries) != 1 {
		return "", false
	}
	return entries[0].Hash, true
}

// legacyHashes parses /etc/shadow into a name→hash map; the first record
// for a name wins, as in DB.ShadowHash.
func legacyHashes(fs *vfs.FS) (map[string]string, error) {
	data, err := fs.ReadFile(vfs.RootCred, accountdb.ShadowFile)
	if err != nil {
		return nil, err
	}
	entries, err := accountdb.ParseShadow(string(data))
	if err != nil {
		return nil, err
	}
	hashes := make(map[string]string, len(entries))
	for i := range entries {
		if _, dup := hashes[entries[i].Name]; !dup {
			hashes[entries[i].Name] = entries[i].Hash
		}
	}
	return hashes, nil
}

// accountPaths are the files the [accounts] section reads: the legacy
// databases and the shadow fragment directory DB.ShadowHash consults first.
var accountPaths = [...]string{
	accountdb.PasswdFile, accountdb.ShadowFile, accountdb.GroupFile, accountdb.ShadowsDir,
}

// acctInodes records the inode a [vfs] walk found at each of accountPaths
// (nil where absent).
type acctInodes [len(accountPaths)]*vfs.Inode

func (a *acctInodes) note(path string, ino *vfs.Inode) {
	for i, p := range accountPaths {
		if path == p {
			a[i] = ino
		}
	}
}

// inherit copies from the snapshot's record every account path inside the
// subtree at dir, which the walk reused instead of visiting.
func (a *acctInodes) inherit(dir string, snap *acctInodes) {
	for i, p := range accountPaths {
		if vfs.IsUnder(p, dir) {
			a[i] = snap[i]
		}
	}
}

// accountsReusable reports whether the [accounts] text depends on nothing
// but the inodes at accountPaths: none of them, nor any user's fragment,
// is a symlink or a synthetic file, and every user name is a plain entry
// name, so each read resolves inside those inodes.
func accountsReusable(m *Machine) bool {
	fs := m.K.FS
	plain := func(path string) bool {
		ino, err := fs.LookupNoFollow(vfs.RootCred, path)
		return err != nil || (!ino.Mode.IsSymlink() && !ino.IsProc())
	}
	for _, p := range accountPaths {
		if !plain(p) {
			return false
		}
	}
	users, err := m.DB.Users()
	if err != nil {
		return true
	}
	for i := range users {
		name := users[i].Name
		if name == "" || name == "." || name == ".." || strings.Contains(name, "/") ||
			!plain(accountdb.ShadowsDir+"/"+name) {
			return false
		}
	}
	return true
}

// accountsText is a snapshot's cached [accounts] rendering.
type accountsText struct {
	text     string
	reusable bool // false: the image defeats caching, always re-render
}

// fpIndex is a snapshot's rendering of its sealed subtrees. A sealed inode
// never changes (copy-up privatizes it before any write), so a sealed
// directory found at the same path renders the same text in every clone.
// The path matters: a renamed or re-mounted sealed directory renders its
// new paths.
type fpIndex struct {
	// text is the snapshot machine's [vfs] section body.
	text string
	// spans locate each sealed directory's subtree in text, sorted by Ino.
	spans []fpSpan
	// acct records the snapshot's inodes at accountPaths, and accounts
	// caches the [accounts] text of a clone that still has them all.
	acct     acctInodes
	accounts atomic.Pointer[accountsText]
}

// fpSpan is the [start,end) range of text rendering ino's subtree; the
// span opens with the directory's own line, whose path is pathLen long.
type fpSpan struct {
	ino                 *vfs.Inode
	start, end, pathLen int
}

// buildIndex renders m's [vfs] section once, recording the span of every
// sealed directory's subtree. Spans close when the pre-order walk reaches
// the first path outside them.
func buildIndex(m *Machine) *fpIndex {
	x := &fpIndex{}
	var b []byte
	type openDir struct {
		path string
		span fpSpan
	}
	var open []openDir
	closeUntil := func(path string) {
		for len(open) > 0 && (path == "" || !vfs.IsUnder(path, open[len(open)-1].path)) {
			d := open[len(open)-1]
			open = open[:len(open)-1]
			d.span.end = len(b)
			x.spans = append(x.spans, d.span)
		}
	}
	m.K.FS.Walk(func(path string, ino *vfs.Inode) bool {
		x.acct.note(path, ino)
		if fingerprintSkip[path] {
			return false
		}
		closeUntil(path)
		if ino.Sealed() && ino.Mode.IsDir() {
			open = append(open, openDir{path: path, span: fpSpan{ino: ino, start: len(b), pathLen: len(path)}})
		}
		b = appendInode(b, path, ino)
		return true
	})
	closeUntil("")
	x.text = string(b)
	slices.SortFunc(x.spans, func(a, b fpSpan) int { return cmp.Compare(a.ino.Ino, b.ino.Ino) })
	return x
}

// subtree returns the snapshot's rendering of the sealed directory ino's
// subtree, if the index has one rendered at path.
func (x *fpIndex) subtree(ino *vfs.Inode, path string) (string, bool) {
	i, _ := slices.BinarySearchFunc(x.spans, ino.Ino, func(s fpSpan, n uint64) int { return cmp.Compare(s.ino.Ino, n) })
	for ; i < len(x.spans) && x.spans[i].ino.Ino == ino.Ino; i++ {
		s := x.spans[i]
		if s.ino != ino {
			continue
		}
		if s.pathLen == len(path) && x.text[s.start:s.start+s.pathLen] == path {
			return x.text[s.start:s.end], true
		}
	}
	return "", false
}
