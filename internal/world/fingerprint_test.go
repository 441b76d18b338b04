package world

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"protego/internal/accountdb"
	"protego/internal/vfs"
)

// Fresh images must fingerprint identically: every by-design difference
// between the baseline and Protego builds (fragment tree, /proc/protego,
// setuid bits, /dev/ppp perms) has a normalization rule, and this test is
// the canary for a new build-time asymmetry leaking into the serializer.
func TestFingerprintFreshImagesEqual(t *testing.T) {
	lin, err := BuildLinux()
	if err != nil {
		t.Fatal(err)
	}
	pro, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	a, b := lin.Fingerprint(), pro.Fingerprint()
	if a == b {
		return
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	shown := 0
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			t.Errorf("line %d:\n  linux:   %q\n  protego: %q", i, x, y)
			if shown++; shown > 15 {
				break
			}
		}
	}
	t.Fatal("fresh-image fingerprints differ")
}

// The fingerprint must be stable across repeated serialization of the same
// machine (map iteration anywhere in the pipeline would break shrinking and
// replay) and must actually change when observable state changes.
func TestFingerprintDeterministicAndSensitive(t *testing.T) {
	m, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	f1 := m.Fingerprint()
	f2 := m.Fingerprint()
	if f1 != f2 {
		t.Fatal("fingerprint not deterministic across calls")
	}
	if err := m.K.FS.WriteFile(vfs.RootCred, "/home/alice/fpnote", []byte("x"), 0o644, UIDAlice, GIDUsers); err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint() == f1 {
		t.Fatal("fingerprint unchanged after VFS write")
	}
}

// purityState is what an observer must leave alone: the legacy account
// files, monitord's sync count, the tracer's emission count, and the
// number of sealed inodes in the tree (a copy-up privatizes one).
type purityState struct {
	legacy  [3]string
	syncs   int
	emitted uint64
	sealed  int
}

func capturePurity(t *testing.T, m *Machine) purityState {
	t.Helper()
	var s purityState
	for i, p := range []string{accountdb.PasswdFile, accountdb.ShadowFile, accountdb.GroupFile} {
		data, err := m.K.FS.ReadFile(vfs.RootCred, p)
		if err != nil {
			t.Fatal(err)
		}
		s.legacy[i] = string(data)
	}
	s.syncs = m.Monitor.SyncCount("accounts-legacy")
	s.emitted = m.K.Trace.Stats().Emitted
	m.K.FS.Walk(func(_ string, ino *vfs.Inode) bool {
		if ino.Sealed() {
			s.sealed++
		}
		return true
	})
	return s
}

// Fingerprint is an observer: on a Protego clone whose shadow fragment
// no longer matches /etc/shadow, it must not converge the two (that is
// monitord's job, and difffuzz must be able to catch a monitord that
// fails to do it), sync, trace, or copy anything up.
func TestFingerprintIsPure(t *testing.T) {
	golden, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	m, err := golden.Snapshot().Clone()
	if err != nil {
		t.Fatal(err)
	}
	frag := accountdb.ShadowEntry{Name: "alice", Hash: "$6$diverged$"}
	if err := m.K.FS.WriteFile(vfs.RootCred, accountdb.ShadowsDir+"/alice", []byte(frag.Line()+"\n"), 0o600, UIDAlice, GIDUsers); err != nil {
		t.Fatal(err)
	}
	before := capturePurity(t, m)
	if strings.Contains(before.legacy[1], frag.Hash) {
		t.Fatal("setup: the legacy shadow file already holds the fragment's hash")
	}
	fp := m.Fingerprint()
	if after := capturePurity(t, m); after != before {
		t.Fatalf("Fingerprint changed the machine:\n  before: %+v\n  after:  %+v", before, after)
	}
	if !strings.Contains(fp, "shadow="+frag.Hash) {
		t.Fatal("fingerprint does not show the fragment's hash, which DB.ShadowHash reads first")
	}
}

// Clones of one snapshot fingerprint concurrently: the first calls race
// to build the snapshot's index and fill its accounts text (run under
// -race in CI).
func TestFingerprintConcurrentClones(t *testing.T) {
	golden, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	snap := golden.Snapshot()
	const workers = 8
	clones := make([]*Machine, workers)
	for i := range clones {
		if clones[i], err = snap.Clone(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i, m := range clones {
		wg.Add(1)
		go func(i int, m *Machine) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				path := fmt.Sprintf("/home/alice/w%d-%d", i, round)
				if err := m.K.FS.WriteFile(vfs.RootCred, path, []byte("x"), 0o644, UIDAlice, GIDUsers); err != nil {
					errs <- err
					return
				}
				if got, want := m.Fingerprint(), referenceFingerprint(m); got != want {
					errs <- fmt.Errorf("clone %d round %d: %s", i, round, firstLineDiff(got, want))
					return
				}
			}
		}(i, m)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
