package vfs

import (
	"testing"
)

// frozenPair builds a tiny tree with one file, freezes it, and returns
// the parent FS, a clone, and the clone's (sealed, shared) view of the
// file's inode.
func frozenPair(t *testing.T, path string) (*FS, *FS, *Inode) {
	t.Helper()
	fs := New()
	if err := fs.WriteFile(RootCred, path, []byte("golden"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	fs.Freeze()
	clone := fs.Clone()
	ino, err := clone.Lookup(RootCred, path)
	if err != nil {
		t.Fatal(err)
	}
	if !ino.Sealed() {
		t.Fatal("freshly cloned inode not sealed")
	}
	return fs, clone, ino
}

// TestBreakSealInodeRebinds: while the path still names the same file,
// breaking the seal copies up in the tree, so path readers observe the
// descriptor's writes and the returned inode is the tree's private copy.
func TestBreakSealInodeRebinds(t *testing.T) {
	parent, clone, ino := frozenPair(t, "/f")
	priv := clone.BreakSealInode("/f", ino)
	if priv.Sealed() {
		t.Fatal("BreakSealInode returned a sealed inode")
	}
	if priv == ino {
		t.Fatal("BreakSealInode returned the shared inode itself")
	}
	tree, err := clone.Lookup(RootCred, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if tree != priv {
		t.Fatal("private copy not linked at the original path")
	}
	priv.Data = append(priv.Data, '!')
	if data, _ := parent.ReadFile(RootCred, "/f"); string(data) != "golden" {
		t.Fatalf("write leaked into parent: %q", data)
	}
}

// TestBreakSealInodeUnlinked: the open-unlink-write tempfile idiom. With
// the entry removed, the descriptor must get an anonymous private copy —
// never the still-sealed shared inode, whose mutation would leak into
// the parent and every sibling clone.
func TestBreakSealInodeUnlinked(t *testing.T) {
	parent, clone, ino := frozenPair(t, "/f")
	if err := clone.Remove(RootCred, "/f"); err != nil {
		t.Fatal(err)
	}
	priv := clone.BreakSealInode("/f", ino)
	if priv.Sealed() {
		t.Fatal("BreakSealInode returned a sealed inode for an unlinked file")
	}
	if priv == ino {
		t.Fatal("BreakSealInode returned the shared inode for an unlinked file")
	}
	priv.Data = append(priv.Data, []byte(" secret")...)
	if data, _ := parent.ReadFile(RootCred, "/f"); string(data) != "golden" {
		t.Fatalf("unlinked-fd write leaked into parent: %q", data)
	}
	if ino.Sealed() && string(ino.Data) != "golden" {
		t.Fatalf("sealed shared inode mutated: %q", ino.Data)
	}
}

// TestBreakSealInodeReplaced: when a different file now occupies the
// descriptor's path (remove + recreate, or rename over), the descriptor
// must not rebind to the stranger; its writes stay fd-local.
func TestBreakSealInodeReplaced(t *testing.T) {
	_, clone, ino := frozenPair(t, "/f")
	if err := clone.Remove(RootCred, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := clone.WriteFile(RootCred, "/f", []byte("stranger"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	priv := clone.BreakSealInode("/f", ino)
	if priv.Sealed() {
		t.Fatal("BreakSealInode returned a sealed inode")
	}
	if tree, _ := clone.Lookup(RootCred, "/f"); tree == priv {
		t.Fatal("descriptor rebound to the unrelated file now at its path")
	}
	priv.Data = append(priv.Data[:0:0], []byte("fd-local")...)
	if data, _ := clone.ReadFile(RootCred, "/f"); string(data) != "stranger" {
		t.Fatalf("fd write landed on the file now occupying the path: %q", data)
	}
}

// TestReadFileParsedMemo: a parse is reused only for the same key on the
// same bytes, whether the bytes change through WriteFile or in place (as
// a descriptor write does); clones reuse the snapshot's parse until they
// write their own copy, and proc files are parsed on every read.
func TestReadFileParsedMemo(t *testing.T) {
	parent, clone, ino := frozenPair(t, "/f")
	parses := 0
	read := func(fs *FS, key string) string {
		t.Helper()
		v, err := fs.ReadFileParsed(RootCred, "/f", key, func(data string) any {
			parses++
			return key + ":" + data
		})
		if err != nil {
			t.Fatal(err)
		}
		return v.(string)
	}
	step := func(fs *FS, key, want string, wantParses int) {
		t.Helper()
		if got := read(fs, key); got != want || parses != wantParses {
			t.Fatalf("got %q after %d parses, want %q after %d", got, parses, want, wantParses)
		}
	}
	step(clone, "a", "a:golden", 1)
	step(parent, "a", "a:golden", 1) // shared sealed inode
	step(clone, "b", "b:golden", 2)  // another key parses again
	step(clone, "b", "b:golden", 2)

	if err := clone.WriteFile(RootCred, "/f", []byte("edited"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	step(clone, "b", "b:edited", 3)
	step(parent, "b", "b:golden", 3) // the copy-up kept the old parse
	if ino.memo == nil || ino.memo.raw != "golden" {
		t.Fatal("the clone's write touched the shared inode's memo")
	}

	priv, err := clone.Lookup(RootCred, "/f")
	if err != nil {
		t.Fatal(err)
	}
	priv.Data[0] = 'E' // an in-place write, same length
	step(clone, "b", "b:Edited", 4)

	var stored string
	if _, err := parent.CreateProc("/p", 0o644, func(Cred) ([]byte, error) { return []byte(stored), nil }, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		v, err := parent.ReadFileParsed(RootCred, "/p", "a", func(data string) any { parses++; return data })
		if err != nil || v.(string) != stored {
			t.Fatalf("proc read: %v %v", v, err)
		}
	}
	if parses != 6 {
		t.Fatalf("proc file memoized: %d parses, want 6", parses)
	}
}
