package world

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"protego/internal/accountdb"
	"protego/internal/kernel"
	"protego/internal/vfs"
)

// TestAccountDBSeesDescriptorWrites: a descriptor write changes the
// file's bytes in place, at the descriptor's offset, without going
// through vfs.WriteFile. The next lookup must see it, on a machine and
// on a clone whose copy-up carried the snapshot's parse along.
func TestAccountDBSeesDescriptorWrites(t *testing.T) {
	parent, err := BuildLinux()
	if err != nil {
		t.Fatal(err)
	}
	rewriteShell := func(m *Machine, from, to string) {
		t.Helper()
		if u, err := m.DB.LookupUser("alice"); err != nil || u.Shell != from {
			t.Fatalf("before: %+v %v", u, err)
		}
		root, err := m.Session("root")
		if err != nil {
			t.Fatal(err)
		}
		data, err := m.K.FS.ReadFile(vfs.RootCred, accountdb.PasswdFile)
		if err != nil {
			t.Fatal(err)
		}
		line := "alice:x:1000:100:Alice:/home/alice:" + from + "\n"
		off := strings.Index(string(data), line) + len(line) - len(from) - 1
		if off <= 0 {
			t.Fatalf("no alice line in %q", data)
		}
		fd, err := m.K.Open(root, accountdb.PasswdFile, kernel.O_RDWR)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.K.Read(root, fd, off); err != nil {
			t.Fatal(err)
		}
		tail := to + string(data[off+len(from):])
		if _, err := m.K.Write(root, fd, []byte(tail)); err != nil {
			t.Fatal(err)
		}
		if err := m.K.CloseFD(root, fd); err != nil {
			t.Fatal(err)
		}
		if u, err := m.DB.LookupUser("alice"); err != nil || u.Shell != to {
			t.Fatalf("after an in-place write of %q: %+v %v", to, u, err)
		}
	}
	rewriteShell(parent, "/bin/sh", "/bin/zz")
	clone, err := parent.Snapshot().Clone()
	if err != nil {
		t.Fatal(err)
	}
	rewriteShell(clone, "/bin/zz", "/bin/yy")
	if u, _ := parent.DB.LookupUser("alice"); u.Shell != "/bin/zz" {
		t.Fatalf("the clone's write reached the parent: %+v", u)
	}
}

// TestAccountDBConcurrentClones: clones of one snapshot share its parsed
// tables through the sealed inodes. Readers on eight clones keep seeing
// the golden records while a ninth clone rewrites its own /etc/passwd
// and sees each of its writes. Run under -race.
func TestAccountDBConcurrentClones(t *testing.T) {
	ref, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	wantUser, err := ref.DB.LookupUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	wantGIDs, _ := ref.DB.GroupIDsOf("alice")
	wantHash, _ := ref.DB.ShadowHash("alice")

	parent, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	snap := parent.Snapshot()
	const readers, rounds = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for i := 0; i < readers; i++ {
		m, err := snap.Clone()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				u, err := m.DB.LookupUser("alice")
				if err != nil || *u != *wantUser {
					errs <- fmt.Errorf("LookupUser: %+v %v", u, err)
					return
				}
				u.Shell = "/bin/evil"
				if gids, err := m.DB.GroupIDsOf("alice"); err != nil || !reflect.DeepEqual(gids, wantGIDs) {
					errs <- fmt.Errorf("GroupIDsOf: %v %v", gids, err)
					return
				}
				if h, err := m.DB.ShadowHash("alice"); err != nil || h != wantHash {
					errs <- fmt.Errorf("ShadowHash: %q %v", h, err)
					return
				}
			}
		}()
	}
	writer, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := writer.K.FS.ReadFile(vfs.RootCred, accountdb.PasswdFile)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < rounds; j++ {
			shell := fmt.Sprintf("/bin/sh%d", j)
			data := strings.Replace(string(golden), "/home/alice:/bin/sh\n", "/home/alice:"+shell+"\n", 1)
			if err := writer.K.FS.WriteFile(vfs.RootCred, accountdb.PasswdFile, []byte(data), 0o644, 0, 0); err != nil {
				errs <- err
				return
			}
			if u, err := writer.DB.LookupUser("alice"); err != nil || u.Shell != shell {
				errs <- fmt.Errorf("writer LookupUser: %+v %v, want shell %s", u, err, shell)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
