package vfs

import (
	"slices"
	"sync"
	"sync/atomic"
)

// maxDcacheEntries bounds the dentry cache. When the cap is reached the
// whole cache is cleared rather than evicted piecemeal: refilling is one
// walk per path, and a wholesale clear keeps the put path branch-free.
const maxDcacheEntries = 4096

// dkey identifies one cached resolution. Lookups that follow a trailing
// symlink and lookups that do not can resolve to different inodes, so the
// follow flag is part of the key.
type dkey struct {
	path   string
	follow bool
}

// dentry is one cached resolution: the walk's outcome plus everything
// needed to re-enforce permissions on a hit. Authorization is deliberately
// NOT cached — chain holds the directories the original walk
// permission-checked, and every hit re-runs MayExec over them with the
// *current* credential against the *current* inode modes, so a cache hit
// and a cold walk always agree, for every credential.
type dentry struct {
	chain      []*Inode // directories MayExec-checked during the walk, in order
	ino        *Inode   // the resolution result
	viaSymlink bool     // the walk traversed at least one symlink
}

// dcache is the FS's path→dentry cache, the simulated kernel's analogue of
// the Linux VFS dentry cache. Only successful resolutions are cached
// (no negative entries), which is what makes create-type mutations
// invalidation-free: adding a node can never change an existing
// successful walk. Structural mutations that can (unlink, rename,
// mount, umount) invalidate the affected path prefix; entries whose walk
// crossed a symlink are invalidated on every structural mutation, because
// a symlink can make any path depend on any other.
//
// The cache has its own lock, always acquired under FS.mu (read or
// write), never the other way around.
type dcache struct {
	mu      sync.RWMutex
	entries map[dkey]dentry

	disabled atomic.Bool // ablation switch; see FS.SetDcacheEnabled

	// gen counts structural mutations processed (including create-type
	// ones that need no eager invalidation); it is observability, not a
	// validity token — invalidation is eager.
	gen         atomic.Uint64
	hits        atomic.Uint64
	misses      atomic.Uint64
	invalidates atomic.Uint64
}

func newDcache() *dcache {
	return &dcache{entries: make(map[dkey]dentry)}
}

// get returns the cached resolution for (path, follow), if any.
func (d *dcache) get(path string, follow bool) (dentry, bool) {
	d.mu.RLock()
	ent, ok := d.entries[dkey{path, follow}]
	d.mu.RUnlock()
	return ent, ok
}

// put stores a successful resolution. Caller holds FS.mu (read suffices:
// structural mutations take FS.mu exclusively, so the entry cannot go
// stale between the walk and the insert).
func (d *dcache) put(path string, follow bool, ent dentry) {
	d.mu.Lock()
	if len(d.entries) >= maxDcacheEntries {
		d.entries = make(map[dkey]dentry)
	}
	d.entries[dkey{path, follow}] = ent
	d.mu.Unlock()
}

// invalidate removes every entry at or beneath path (beneath only, when
// inclusive is false — the mount case: grafting swaps the mount point's
// children but not the mount-point inode itself) plus every
// symlink-traversing entry. Caller holds FS.mu exclusively.
func (d *dcache) invalidate(path string, inclusive bool) {
	d.gen.Add(1)
	d.mu.Lock()
	var n uint64
	for k, ent := range d.entries {
		if ent.viaSymlink ||
			(inclusive && k.path == path) ||
			strictlyUnder(k.path, path) {
			delete(d.entries, k)
			n++
		}
	}
	d.mu.Unlock()
	d.invalidates.Add(n)
}

// strictlyUnder reports whether p lies strictly beneath dir (both cleaned
// absolute paths). Allocation-free — the sweep runs on every structural
// mutation, so it must not pay IsUnder's string concatenation per entry.
func strictlyUnder(p, dir string) bool {
	if dir == "/" {
		return p != "/"
	}
	return len(p) > len(dir) && p[:len(dir)] == dir && p[len(dir)] == '/'
}

// noteCreate records a create-type structural mutation. Creates cannot
// change any existing successful resolution (only positive results are
// cached), so the generation advances but no entry is dropped.
func (d *dcache) noteCreate() {
	d.gen.Add(1)
}

// clear drops everything (ablation toggle, cap overflow).
func (d *dcache) clear() {
	d.mu.Lock()
	d.entries = make(map[dkey]dentry)
	d.mu.Unlock()
}

func (d *dcache) size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// DcacheStats is a snapshot of the dentry-cache counters.
type DcacheStats struct {
	Hits        uint64
	Misses      uint64
	Invalidates uint64
	Entries     int
	Generation  uint64
}

// HitRatio returns hits/(hits+misses), or 0 when the cache is untouched.
func (s DcacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// DcacheStats returns the dentry cache's counters.
func (fs *FS) DcacheStats() DcacheStats {
	d := fs.dcache
	return DcacheStats{
		Hits:        d.hits.Load(),
		Misses:      d.misses.Load(),
		Invalidates: d.invalidates.Load(),
		Entries:     d.size(),
		Generation:  d.gen.Load(),
	}
}

// SetDcacheEnabled toggles the dentry cache (ablation benchmarks compare
// cached vs walk-every-time resolution). Disabling clears the cache.
func (fs *FS) SetDcacheEnabled(on bool) {
	fs.dcache.disabled.Store(!on)
	if !on {
		fs.dcache.clear()
	}
}

// walkTrack accumulates, across symlink recursion, the directories a
// resolve walk permission-checked, for insertion into the dcache. The
// first few sit in an inline array, so tracking a walk that fails
// allocates nothing.
type walkTrack struct {
	inline     [8]*Inode
	n          int
	spill      []*Inode
	viaSymlink bool
}

func (tk *walkTrack) add(dir *Inode) {
	if tk.n < len(tk.inline) {
		tk.inline[tk.n] = dir
		tk.n++
		return
	}
	tk.spill = append(tk.spill, dir)
}

// chain returns the tracked directories in walk order, in a slice of
// their own.
func (tk *walkTrack) chain() []*Inode {
	return append(slices.Clone(tk.inline[:tk.n]), tk.spill...)
}

// lookupLocked resolves clean (an already-cleaned absolute path) through
// the dentry cache. Caller holds FS.mu (read or write). On a hit the
// cached walk's directories are re-checked for MayExec with the caller's
// credential; on a miss the full walk runs and, when successful, is
// inserted. Failed walks are not cached.
func (fs *FS) lookupLocked(c Cred, clean string, follow bool) (*Inode, error) {
	d := fs.dcache
	if d.disabled.Load() {
		return fs.resolve(c, clean, follow, 0)
	}
	if ent, ok := d.get(clean, follow); ok {
		d.hits.Add(1)
		for _, dir := range ent.chain {
			if err := checkPerm(c, dir, MayExec); err != nil {
				return nil, err
			}
		}
		return ent.ino, nil
	}
	d.misses.Add(1)
	var tk walkTrack
	ino, err := fs.resolveTrack(c, clean, follow, 0, &tk)
	if err != nil {
		return nil, err
	}
	d.put(clean, follow, dentry{chain: tk.chain(), ino: ino, viaSymlink: tk.viaSymlink})
	return ino, nil
}
