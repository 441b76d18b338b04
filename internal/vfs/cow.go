package vfs

// Copy-on-write snapshots. Freeze seals every inode currently in the
// tree; Clone then produces a new FS that shares the sealed inodes with
// its parent. Both sides privatize ("copy up") the sealed inodes along a
// path before the first mutation, persistent-tree style, so a golden
// image can be stamped into many tenant machines at a tiny fraction of
// the cost of rebuilding one.
//
// Sealing is one-way and race-free by construction: a sealed directory
// only ever holds sealed children (copy-up privatizes parents before
// children, and creating an entry requires a private parent first), so a
// re-Freeze prunes at sealed nodes and never writes to an inode another
// clone can reach.

import (
	"maps"
	"slices"
	"strings"

	"protego/internal/errno"
)

// Freeze seals every inode in the tree — including subtrees stashed by
// AttachMount — and switches the FS into copy-on-write mode. Idempotent:
// re-freezing after private mutations re-seals only the private inodes,
// so repeated Snapshot/Clone cycles work.
func (fs *FS) Freeze() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sealTree(fs.root)
	for _, saves := range fs.mountSave {
		for _, sd := range saves {
			for _, child := range sd.children {
				sealTree(child)
			}
		}
	}
	fs.cow.Store(true)
}

// sealTree marks ino and every descendant sealed, pruning at
// already-sealed nodes (their subtrees are sealed by invariant).
func sealTree(ino *Inode) {
	if ino.sealed.Load() {
		return
	}
	ino.sealed.Store(true)
	for _, child := range ino.children {
		sealTree(child)
	}
}

// COW reports whether the FS is in copy-on-write mode (frozen or cloned).
func (fs *FS) COW() bool { return fs.cow.Load() }

// Clone returns a new FS sharing this file system's sealed inode tree.
// The FS must be frozen first. The clone starts with a fresh empty
// dcache, no watches, no fault injector, and private copies of the mount
// table and the saved mount-point directories; inodes stay shared until
// either side writes, at which point the writer copies the affected path
// up into private inodes.
func (fs *FS) Clone() *FS {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	c := &FS{
		root:      fs.root,
		nextIno:   fs.nextIno,
		dcache:    newDcache(),
		mountSave: make(map[string][]savedDir, len(fs.mountSave)),
	}
	c.cow.Store(true)
	c.dcache.disabled.Store(fs.dcache.disabled.Load())
	c.mounts = make([]*Mount, len(fs.mounts))
	for i, m := range fs.mounts {
		mc := *m
		mc.Options = append([]string(nil), m.Options...)
		c.mounts[i] = &mc
	}
	for point, saves := range fs.mountSave {
		cs := make([]savedDir, len(saves))
		for i, sd := range saves {
			cs[i] = savedDir{
				children: maps.Clone(sd.children),
				mode:     sd.mode,
				uid:      sd.uid,
				gid:      sd.gid,
			}
		}
		c.mountSave[point] = cs
	}
	return c
}

// cowCopy returns a private, unsealed shallow copy of the inode.
// Directory children maps are cloned (entries still point at shared
// inodes); file data is copied, because a descriptor write overwrites
// Data in place and must not scribble on bytes the other side can read.
// The parse memo carries over, so the copy reuses the parse until its
// bytes change; it is read under ino.mu because a sibling machine's
// ReadFileParsed may be storing one.
func (ino *Inode) cowCopy() *Inode {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	cp := &Inode{
		Ino:     ino.Ino,
		Mode:    ino.Mode,
		UID:     ino.UID,
		GID:     ino.GID,
		Nlink:   ino.Nlink,
		Major:   ino.Major,
		Minor:   ino.Minor,
		DevType: ino.DevType,
		ReadFn:  ino.ReadFn,
		WriteFn: ino.WriteFn,
		Atime:   ino.Atime,
		Mtime:   ino.Mtime,
		Ctime:   ino.Ctime,
		memo:    ino.memo,
	}
	if ino.children != nil {
		cp.children = maps.Clone(ino.children)
	}
	cp.Data = slices.Clone(ino.Data)
	return cp
}

// copyUpLocked privatizes every sealed inode along path (cleaned,
// absolute), following intermediate symlinks like resolve but with no
// permission checks — mutation rights are established by the caller's own
// lookup. Returns the now-private inode at path. Caller holds fs.mu
// exclusively.
func (fs *FS) copyUpLocked(path string, followLast bool, depth int) (*Inode, error) {
	if depth > 16 {
		return nil, errno.ELOOP
	}
	if fs.root.sealed.Load() {
		fs.root = fs.root.cowCopy()
		fs.cowBreaks++
	}
	cur := fs.root
	for rest := path[1:]; rest != ""; {
		name, after, more := strings.Cut(rest, "/")
		if !cur.Mode.IsDir() {
			return nil, errno.ENOTDIR
		}
		next, ok := cur.children[name]
		if !ok {
			return nil, errno.ENOENT
		}
		if next.Mode.IsSymlink() && (more || followLast) {
			return fs.copyUpLocked(linkTarget(next, path, rest, after), followLast, depth+1)
		}
		if next.sealed.Load() {
			next = next.cowCopy()
			cur.children[name] = next
			fs.cowBreaks++
		}
		cur = next
		rest = after
	}
	return cur, nil
}

// cowWriteLocked prepares path for mutation on a COW file system by
// privatizing the sealed inodes along it. Resolution errors are
// swallowed: the deepest existing prefix gets privatized — exactly what
// creation sites need for the parent directory — and the caller's own
// lookup reports the real error. Any privatization clears the dcache,
// whose cached chains hold the replaced pointers. Caller holds fs.mu
// exclusively. No-op when not in COW mode.
func (fs *FS) cowWriteLocked(path string, followLast bool) {
	if !fs.cow.Load() {
		return
	}
	before := fs.cowBreaks
	_, _ = fs.copyUpLocked(CleanPath(path, "/"), followLast, 0)
	if fs.cowBreaks != before {
		fs.dcache.clear()
	}
}

// BreakSealInode returns a writable private inode for a descriptor that
// holds ino, originally opened at path. The kernel's fd-based write path
// uses it when a descriptor's inode is sealed (opened before a snapshot,
// or inherited through a machine clone). If path still resolves to the
// same inode, the copy-up happens in the tree, so path readers observe
// the descriptor's writes. If the directory entry was removed or now
// names a different file — the classic open-unlink-write tempfile idiom,
// or a rename over the name — the descriptor instead gets an anonymous
// private copy: the write stays fd-local and whatever now occupies path
// is untouched. Either way a sealed inode is never mutated, so the
// snapshot sharers stay pristine.
func (fs *FS) BreakSealInode(path string, ino *Inode) *Inode {
	if !ino.sealed.Load() {
		return ino
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cow.Load() {
		before := fs.cowBreaks
		nino, err := fs.copyUpLocked(CleanPath(path, "/"), true, 0)
		if fs.cowBreaks != before {
			fs.dcache.clear()
		}
		if err == nil && nino.Ino == ino.Ino {
			return nino
		}
	}
	// The entry is gone or replaced since open (or the FS is somehow not
	// in COW mode): privatize the inode itself, off-tree.
	return ino.cowCopy()
}

// RebindProc replaces the proc handlers of an existing synthetic inode
// (file or directory). Machine cloning uses it to point shared proc
// inodes at the clone's own kernel objects; on a COW file system the
// inode is privatized first so the parent's handlers stay untouched.
func (fs *FS) RebindProc(path string, read ProcReadFunc, write ProcWriteFunc) error {
	clean := CleanPath(path, "/")
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cowWriteLocked(clean, true)
	ino, err := fs.lookupLocked(RootCred, clean, true)
	if err != nil {
		return err
	}
	ino.ReadFn = read
	ino.WriteFn = write
	return nil
}
