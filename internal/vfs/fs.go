package vfs

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/faultinject"
)

// FS is an in-memory file system tree with Unix semantics. A single lock
// serializes structural operations; file data reads/writes additionally
// synchronize on the inode so concurrent tasks behave sanely.
type FS struct {
	mu      sync.RWMutex
	root    *Inode
	nextIno uint64

	// dcache caches repeat path resolutions; structural mutations
	// invalidate affected prefixes (see dcache.go for the precise rules).
	dcache *dcache

	watches   []*Watch
	watchSeq  int
	mounts    []*Mount
	mountSave map[string][]savedDir

	// faults is the optional fault-injection layer (nil normally). Checks
	// run before fs.mu is taken, so an injected failure can never leak a
	// lock.
	faults atomic.Pointer[faultinject.Injector]

	// cow marks a frozen (or cloned) file system: mutating operations
	// copy sealed inodes up into private ones first (see cow.go). An
	// atomic so the non-COW fast paths read it without fs.mu.
	cow atomic.Bool
	// cowBreaks counts privatized inodes; cowWriteLocked uses it to
	// detect whether a copy-up happened (guarded by fs.mu).
	cowBreaks uint64
}

type savedDir struct {
	children map[string]*Inode
	mode     Mode
	uid, gid int
}

// rootCred is an all-powerful credential used internally for setup helpers.
type rootCred struct{}

func (rootCred) FSUID() int            { return 0 }
func (rootCred) FSGID() int            { return 0 }
func (rootCred) InGroup(int) bool      { return true }
func (rootCred) Capable(caps.Cap) bool { return true }

// RootCred is a credential with full privilege, for machine-image
// construction and tests. It must never be handed to simulated userspace.
var RootCred Cred = rootCred{}

// New creates an empty file system whose root directory is owned by root
// with mode 0755.
func New() *FS {
	fs := &FS{nextIno: 1, mountSave: make(map[string][]savedDir), dcache: newDcache()}
	fs.root = fs.newInode(TypeDir|0o755, 0, 0)
	fs.root.children = make(map[string]*Inode)
	return fs
}

func (fs *FS) newInode(mode Mode, uid, gid int) *Inode {
	ino := &Inode{
		Ino:   fs.nextIno,
		Mode:  mode,
		UID:   uid,
		GID:   gid,
		Nlink: 1,
		Atime: time.Now(),
		Mtime: time.Now(),
		Ctime: time.Now(),
	}
	fs.nextIno++
	if mode.IsDir() {
		ino.children = make(map[string]*Inode)
	}
	return ino
}

// SetFaultInjector installs (or removes, with nil) the fault-injection
// layer for VFS operations. Normally called through
// kernel.SetFaultInjector.
func (fs *FS) SetFaultInjector(in *faultinject.Injector) {
	fs.faults.Store(in)
}

// faultCheck registers a hit at a vfs.* injection site. Nil-injector safe.
func (fs *FS) faultCheck(site string) error {
	return fs.faults.Load().Check(site)
}

// resolve walks path (already cleaned and absolute) checking MayExec on every
// traversed directory. If followLast is true, a trailing symlink is followed.
func (fs *FS) resolve(c Cred, path string, followLast bool, depth int) (*Inode, error) {
	return fs.resolveTrack(c, path, followLast, depth, nil)
}

// resolveTrack is resolve with an optional walk tracker: when tk is
// non-nil it accumulates every directory the walk permission-checked
// (across symlink recursion) so the result can be inserted into the
// dcache with enough state to re-enforce MayExec on later hits.
func (fs *FS) resolveTrack(c Cred, path string, followLast bool, depth int, tk *walkTrack) (*Inode, error) {
	if depth > 16 {
		return nil, errno.ELOOP
	}
	cur := fs.root
	for rest := path[1:]; rest != ""; {
		name, after, more := strings.Cut(rest, "/")
		if !cur.Mode.IsDir() {
			return nil, errno.ENOTDIR
		}
		if err := checkPerm(c, cur, MayExec); err != nil {
			return nil, err
		}
		if tk != nil {
			tk.add(cur)
		}
		next, ok := cur.children[name]
		if !ok {
			return nil, errno.ENOENT
		}
		if next.Mode.IsSymlink() && (more || followLast) {
			if tk != nil {
				tk.viaSymlink = true
			}
			return fs.resolveTrack(c, linkTarget(next, path, rest, after), followLast, depth+1, tk)
		}
		cur = next
		rest = after
	}
	return cur, nil
}

// linkTarget returns the path a walk of path (clean, absolute) continues
// at when it meets symlink ln: rest is the unwalked tail of path starting
// at the link's name, after the tail that follows the link.
func linkTarget(ln *Inode, path, rest, after string) string {
	dir := path[:len(path)-len(rest)-1]
	if dir == "" {
		dir = "/"
	}
	target := CleanPath(string(ln.Data), dir)
	// target is clean and after comes from an already-cleaned path, so
	// the concatenation needs no re-clean.
	switch {
	case after == "":
		return target
	case target == "/":
		return "/" + after
	default:
		return target + "/" + after
	}
}

// Lookup resolves path to an inode, following symlinks.
func (fs *FS) Lookup(c Cred, path string) (*Inode, error) {
	if err := fs.faultCheck(faultinject.SiteVFSLookup); err != nil {
		return nil, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.lookupLocked(c, CleanPath(path, "/"), true)
}

// LookupNoFollow resolves path without following a final symlink.
func (fs *FS) LookupNoFollow(c Cred, path string) (*Inode, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.lookupLocked(c, CleanPath(path, "/"), false)
}

// Exists reports whether path resolves for credential c.
func (fs *FS) Exists(c Cred, path string) bool {
	_, err := fs.Lookup(c, path)
	return err == nil
}

// lookupParent resolves the parent directory of path and returns it together
// with the base name.
func (fs *FS) lookupParent(c Cred, path string) (*Inode, string, error) {
	clean := CleanPath(path, "/")
	dir, base := SplitPath(clean)
	if base == "." {
		return nil, "", errno.EINVAL
	}
	parent, err := fs.lookupLocked(c, dir, true)
	if err != nil {
		return nil, "", err
	}
	if !parent.Mode.IsDir() {
		return nil, "", errno.ENOTDIR
	}
	return parent, base, nil
}

// Mkdir creates a directory. The parent must grant write+exec.
func (fs *FS) Mkdir(c Cred, path string, mode Mode, uid, gid int) (*Inode, error) {
	if err := fs.faultCheck(faultinject.SiteVFSMkdir); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	fs.cowWriteLocked(path, false)
	parent, base, err := fs.lookupParent(c, path)
	if err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	if err := checkPerm(c, parent, MayWrite|MayExec); err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	if _, exists := parent.children[base]; exists {
		fs.mu.Unlock()
		return nil, errno.EEXIST
	}
	ino := fs.newInode(TypeDir|mode.Perm(), uid, gid)
	parent.children[base] = ino
	parent.Mtime = time.Now()
	fs.dcache.noteCreate()
	fs.mu.Unlock()
	fs.notify(Event{Op: OpCreate, Path: CleanPath(path, "/")})
	return ino, nil
}

// MkdirAll creates path and any missing parents with the given mode.
func (fs *FS) MkdirAll(c Cred, path string, mode Mode, uid, gid int) error {
	clean := CleanPath(path, "/")
	comps := components(clean)
	cur := "/"
	for _, name := range comps {
		if cur == "/" {
			cur = "/" + name
		} else {
			cur = cur + "/" + name
		}
		if fs.Exists(c, cur) {
			continue
		}
		if _, err := fs.Mkdir(c, cur, mode, uid, gid); err != nil && err != errno.EEXIST {
			return err
		}
	}
	return nil
}

// Create makes a new regular file (failing if it exists) and returns its inode.
func (fs *FS) Create(c Cred, path string, mode Mode, uid, gid int) (*Inode, error) {
	if err := fs.faultCheck(faultinject.SiteVFSCreate); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	fs.cowWriteLocked(path, false)
	parent, base, err := fs.lookupParent(c, path)
	if err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	if err := checkPerm(c, parent, MayWrite|MayExec); err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	if _, exists := parent.children[base]; exists {
		fs.mu.Unlock()
		return nil, errno.EEXIST
	}
	if err := fs.checkReadOnlyLocked(path); err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	ino := fs.newInode(TypeRegular|mode.Perm(), uid, gid)
	parent.children[base] = ino
	parent.Mtime = time.Now()
	fs.dcache.noteCreate()
	fs.mu.Unlock()
	fs.notify(Event{Op: OpCreate, Path: CleanPath(path, "/")})
	return ino, nil
}

// Symlink creates a symbolic link at path pointing to target.
func (fs *FS) Symlink(c Cred, target, path string, uid, gid int) error {
	fs.mu.Lock()
	fs.cowWriteLocked(path, false)
	parent, base, err := fs.lookupParent(c, path)
	if err != nil {
		fs.mu.Unlock()
		return err
	}
	if err := checkPerm(c, parent, MayWrite|MayExec); err != nil {
		fs.mu.Unlock()
		return err
	}
	if _, exists := parent.children[base]; exists {
		fs.mu.Unlock()
		return errno.EEXIST
	}
	ino := fs.newInode(TypeSymlink|0o777, uid, gid)
	ino.Data = []byte(target)
	parent.children[base] = ino
	fs.dcache.noteCreate()
	fs.mu.Unlock()
	fs.notify(Event{Op: OpCreate, Path: CleanPath(path, "/")})
	return nil
}

// Mknod creates a device node. Linux requires CAP_MKNOD; so do we.
func (fs *FS) Mknod(c Cred, path string, devType DeviceType, major, minor int, mode Mode, uid, gid int) (*Inode, error) {
	if !c.Capable(caps.CAP_MKNOD) {
		return nil, errno.EPERM
	}
	fs.mu.Lock()
	fs.cowWriteLocked(path, false)
	parent, base, err := fs.lookupParent(c, path)
	if err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	if _, exists := parent.children[base]; exists {
		fs.mu.Unlock()
		return nil, errno.EEXIST
	}
	t := TypeChar
	if devType == BlockDevice {
		t = TypeBlock
	}
	ino := fs.newInode(t|mode.Perm(), uid, gid)
	ino.Major, ino.Minor, ino.DevType = major, minor, devType
	parent.children[base] = ino
	fs.dcache.noteCreate()
	fs.mu.Unlock()
	fs.notify(Event{Op: OpCreate, Path: CleanPath(path, "/")})
	return ino, nil
}

// CreateProc installs a synthetic file with the given read/write handlers.
// Used by the kernel to expose the /proc policy interface of Figure 1.
func (fs *FS) CreateProc(path string, mode Mode, read ProcReadFunc, write ProcWriteFunc) (*Inode, error) {
	fs.mu.Lock()
	fs.cowWriteLocked(path, false)
	parent, base, err := fs.lookupParent(RootCred, path)
	if err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	if _, exists := parent.children[base]; exists {
		fs.mu.Unlock()
		return nil, errno.EEXIST
	}
	ino := fs.newInode(TypeRegular|mode.Perm(), 0, 0)
	ino.ReadFn = read
	ino.WriteFn = write
	parent.children[base] = ino
	fs.dcache.noteCreate()
	fs.mu.Unlock()
	return ino, nil
}

// ReadFile returns the contents of the file at path, enforcing read
// permission along the way. Proc files call their read handler.
func (fs *FS) ReadFile(c Cred, path string) ([]byte, error) {
	ino, err := fs.readable(c, path)
	if err != nil {
		return nil, err
	}
	if ino.ReadFn != nil {
		return ino.ReadFn(c)
	}
	ino.mu.Lock()
	data := make([]byte, len(ino.Data))
	copy(data, ino.Data)
	ino.mu.Unlock()
	return data, nil
}

// parseMemo is one parse of an inode's contents: raw is the text that
// was parsed, key names the parser.
type parseMemo struct {
	key string
	raw string
	val any
}

// ReadFileParsed reads the file at path exactly as ReadFile does (same
// fault site, lookup and permission check) and returns parse applied to
// its contents. The result is memoized on the inode: a later call with
// the same key on the same bytes returns it without parsing again, on
// this file system or on any clone sharing the inode. A hit compares the
// contents rather than trusting a version, because descriptor writes
// change Data in place. The value may be shared across file systems and
// goroutines, so nobody may modify it. Proc files are parsed on every
// call.
func (fs *FS) ReadFileParsed(c Cred, path, key string, parse func(string) any) (any, error) {
	ino, err := fs.readable(c, path)
	if err != nil {
		return nil, err
	}
	if ino.ReadFn != nil {
		data, err := ino.ReadFn(c)
		if err != nil {
			return nil, err
		}
		return parse(string(data)), nil
	}
	ino.mu.Lock()
	if m := ino.memo; m != nil && m.key == key && m.raw == string(ino.Data) {
		ino.mu.Unlock()
		return m.val, nil
	}
	raw := string(ino.Data)
	ino.mu.Unlock()
	m := &parseMemo{key: key, raw: raw, val: parse(raw)}
	ino.mu.Lock()
	ino.memo = m
	ino.mu.Unlock()
	return m.val, nil
}

// readable resolves path for a whole-file read: the vfs.readfile fault
// site, the lookup and the read permission check.
func (fs *FS) readable(c Cred, path string) (*Inode, error) {
	if err := fs.faultCheck(faultinject.SiteVFSReadFile); err != nil {
		return nil, err
	}
	fs.mu.RLock()
	ino, err := fs.lookupLocked(c, CleanPath(path, "/"), true)
	fs.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if ino.Mode.IsDir() {
		return nil, errno.EISDIR
	}
	if err := checkPerm(c, ino, MayRead); err != nil {
		return nil, err
	}
	return ino, nil
}

// WriteFile replaces the contents of the file at path, creating it with the
// given mode if absent. Write permission (or CAP_DAC_OVERRIDE) is required.
func (fs *FS) WriteFile(c Cred, path string, data []byte, mode Mode, uid, gid int) error {
	if err := fs.faultCheck(faultinject.SiteVFSWriteFile); err != nil {
		return err
	}
	clean := CleanPath(path, "/")
	fs.mu.RLock()
	ino, err := fs.lookupLocked(c, clean, true)
	fs.mu.RUnlock()
	if err == errno.ENOENT {
		ino, err = fs.Create(c, clean, mode, uid, gid)
		if err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	return fs.writeInode(c, ino, clean, data, false)
}

// AppendFile appends data to the file at path, which must exist.
func (fs *FS) AppendFile(c Cred, path string, data []byte) error {
	clean := CleanPath(path, "/")
	fs.mu.RLock()
	ino, err := fs.lookupLocked(c, clean, true)
	fs.mu.RUnlock()
	if err != nil {
		return err
	}
	return fs.writeInode(c, ino, clean, data, true)
}

func (fs *FS) writeInode(c Cred, ino *Inode, clean string, data []byte, app bool) error {
	if ino.Mode.IsDir() {
		return errno.EISDIR
	}
	if err := checkPerm(c, ino, MayWrite); err != nil {
		return err
	}
	fs.mu.RLock()
	roErr := fs.checkReadOnlyLocked(clean)
	fs.mu.RUnlock()
	if roErr != nil {
		return roErr
	}
	if ino.WriteFn != nil {
		return ino.WriteFn(c, data)
	}
	if ino.sealed.Load() {
		// Snapshot-shared inode: privatize the path before touching Data.
		// The copy-up can fail (the entry may vanish under a concurrent
		// remove); a write must then fail rather than land on the shared
		// inode, which every sibling snapshot can read.
		fs.mu.Lock()
		fs.cowWriteLocked(clean, true)
		nino, lerr := fs.lookupLocked(c, clean, true)
		if lerr == nil && nino.sealed.Load() {
			lerr = errno.EROFS
		}
		fs.mu.Unlock()
		if lerr != nil {
			return lerr
		}
		ino = nino
	}
	ino.mu.Lock()
	if app {
		ino.Data = append(ino.Data, data...)
	} else {
		ino.Data = append(ino.Data[:0:0], data...)
	}
	// Writing by a non-owner clears setuid/setgid, as Linux does; this is
	// one of the classic hardening rules from the secure-Unix literature
	// cited in §6.
	if c.FSUID() != 0 {
		ino.Mode &^= ModeSetuid | ModeSetgid
	}
	ino.Mtime = time.Now()
	ino.mu.Unlock()
	fs.notify(Event{Op: OpWrite, Path: clean})
	return nil
}

// Remove unlinks the file or empty directory at path. The classic sticky-bit
// rule applies in sticky directories such as /tmp.
func (fs *FS) Remove(c Cred, path string) error {
	if err := fs.faultCheck(faultinject.SiteVFSRemove); err != nil {
		return err
	}
	clean := CleanPath(path, "/")
	fs.mu.Lock()
	fs.cowWriteLocked(clean, false)
	parent, base, err := fs.lookupParent(c, clean)
	if err != nil {
		fs.mu.Unlock()
		return err
	}
	target, ok := parent.children[base]
	if !ok {
		fs.mu.Unlock()
		return errno.ENOENT
	}
	if err := checkPerm(c, parent, MayWrite|MayExec); err != nil {
		fs.mu.Unlock()
		return err
	}
	if parent.Mode&ModeSticky != 0 && c.FSUID() != 0 &&
		c.FSUID() != target.UID && c.FSUID() != parent.UID && !c.Capable(caps.CAP_FOWNER) {
		fs.mu.Unlock()
		return errno.EPERM
	}
	if target.Mode.IsDir() && len(target.children) > 0 {
		fs.mu.Unlock()
		return errno.ENOTEMPTY
	}
	if fs.isMountPointLocked(clean) {
		fs.mu.Unlock()
		return errno.EBUSY
	}
	delete(parent.children, base)
	parent.Mtime = time.Now()
	fs.dcache.invalidate(clean, true)
	fs.mu.Unlock()
	fs.notify(Event{Op: OpRemove, Path: clean})
	return nil
}

// Rename moves oldPath to newPath (replacing a non-directory target).
func (fs *FS) Rename(c Cred, oldPath, newPath string) error {
	if err := fs.faultCheck(faultinject.SiteVFSRename); err != nil {
		return err
	}
	oldClean := CleanPath(oldPath, "/")
	newClean := CleanPath(newPath, "/")
	fs.mu.Lock()
	fs.cowWriteLocked(oldClean, false)
	fs.cowWriteLocked(newClean, false)
	oldParent, oldBase, err := fs.lookupParent(c, oldClean)
	if err != nil {
		fs.mu.Unlock()
		return err
	}
	target, ok := oldParent.children[oldBase]
	if !ok {
		fs.mu.Unlock()
		return errno.ENOENT
	}
	newParent, newBase, err := fs.lookupParent(c, newClean)
	if err != nil {
		fs.mu.Unlock()
		return err
	}
	if err := checkPerm(c, oldParent, MayWrite|MayExec); err != nil {
		fs.mu.Unlock()
		return err
	}
	if err := checkPerm(c, newParent, MayWrite|MayExec); err != nil {
		fs.mu.Unlock()
		return err
	}
	if existing, ok := newParent.children[newBase]; ok && existing.Mode.IsDir() {
		fs.mu.Unlock()
		return errno.EISDIR
	}
	delete(oldParent.children, oldBase)
	newParent.children[newBase] = target
	oldParent.Mtime = time.Now()
	newParent.Mtime = time.Now()
	fs.dcache.invalidate(oldClean, true)
	fs.dcache.invalidate(newClean, true)
	fs.mu.Unlock()
	fs.notify(Event{Op: OpRemove, Path: oldClean})
	fs.notify(Event{Op: OpWrite, Path: newClean})
	return nil
}

// Chmod changes the permission bits. Only the owner or CAP_FOWNER may do so.
// Setting the setgid bit on a file not owned by one of the caller's groups
// silently clears it, as on Linux.
func (fs *FS) Chmod(c Cred, path string, mode Mode) error {
	clean := CleanPath(path, "/")
	ino, err := fs.Lookup(c, clean)
	if err != nil {
		return err
	}
	if c.FSUID() != ino.UID && !c.Capable(caps.CAP_FOWNER) {
		return errno.EPERM
	}
	if mode&ModeSetgid != 0 && c.FSGID() != ino.GID && !c.InGroup(ino.GID) && !c.Capable(caps.CAP_FSETID) {
		mode &^= ModeSetgid
	}
	fs.mu.Lock()
	if ino.sealed.Load() {
		fs.cowWriteLocked(clean, true)
		nino, lerr := fs.lookupLocked(c, clean, true)
		if lerr == nil && nino.sealed.Load() {
			lerr = errno.EROFS
		}
		if lerr != nil {
			fs.mu.Unlock()
			return lerr
		}
		ino = nino
	}
	ino.Mode = ino.Mode.Type() | mode.Perm()
	ino.Ctime = time.Now()
	// Cached chains hold this inode by pointer and re-check MayExec on
	// every hit, so correctness does not depend on this invalidation; it
	// keeps the mutation rule uniform (and the generation honest).
	fs.dcache.invalidate(clean, true)
	fs.mu.Unlock()
	fs.notify(Event{Op: OpChmod, Path: clean})
	return nil
}

// Chown changes ownership; requires CAP_CHOWN (only root may give files
// away, the Linux default). Chown clears setuid/setgid bits.
func (fs *FS) Chown(c Cred, path string, uid, gid int) error {
	clean := CleanPath(path, "/")
	ino, err := fs.Lookup(c, clean)
	if err != nil {
		return err
	}
	if uid != ino.UID && !c.Capable(caps.CAP_CHOWN) {
		return errno.EPERM
	}
	if gid != ino.GID && c.FSUID() != ino.UID && !c.Capable(caps.CAP_CHOWN) {
		return errno.EPERM
	}
	fs.mu.Lock()
	if ino.sealed.Load() {
		fs.cowWriteLocked(clean, true)
		nino, lerr := fs.lookupLocked(c, clean, true)
		if lerr == nil && nino.sealed.Load() {
			lerr = errno.EROFS
		}
		if lerr != nil {
			fs.mu.Unlock()
			return lerr
		}
		ino = nino
	}
	ino.UID, ino.GID = uid, gid
	if ino.Mode.IsRegular() {
		ino.Mode &^= ModeSetuid | ModeSetgid
	}
	ino.Ctime = time.Now()
	fs.dcache.invalidate(clean, true)
	fs.mu.Unlock()
	fs.notify(Event{Op: OpChmod, Path: clean})
	return nil
}

// ReadDir lists the entries of the directory at path.
func (fs *FS) ReadDir(c Cred, path string) ([]string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ino, err := fs.lookupLocked(c, CleanPath(path, "/"), true)
	if err != nil {
		return nil, err
	}
	if !ino.Mode.IsDir() {
		return nil, errno.ENOTDIR
	}
	if err := checkPerm(c, ino, MayRead); err != nil {
		return nil, err
	}
	return ino.childNames(), nil
}

// Stat returns the inode at path without permission side effects beyond the
// directory walk.
func (fs *FS) Stat(c Cred, path string) (*Inode, error) {
	return fs.Lookup(c, path)
}
