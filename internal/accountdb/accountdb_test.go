package accountdb

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"protego/internal/vfs"
)

const samplePasswd = `root:x:0:0:root:/root:/bin/sh
alice:x:1000:100:Alice:/home/alice:/bin/sh
bob:x:1001:100:Bob:/home/bob:/bin/zsh
`

const sampleShadow = `root:$5$pgroot$abc:0:0:99999:7:::
alice:$5$pgalice$def:0:0:99999:7:::
bob:!:0:0:99999:7:::
`

const sampleGroup = `root:x:0:
users:x:100:alice,bob
ops:$5$pgops$ff:20:alice
`

func TestParsePasswd(t *testing.T) {
	users, err := ParsePasswd(samplePasswd)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 3 {
		t.Fatalf("users = %d", len(users))
	}
	alice := users[1]
	if alice.Name != "alice" || alice.UID != 1000 || alice.GID != 100 ||
		alice.Home != "/home/alice" || alice.Shell != "/bin/sh" || alice.Gecos != "Alice" {
		t.Fatalf("alice: %+v", alice)
	}
}

func TestParsePasswdErrors(t *testing.T) {
	for _, in := range []string{"tooshort:x:1", "bad:x:NaN:0:::/bin/sh", "bad:x:0:NaN:::/bin/sh"} {
		if _, err := ParsePasswd(in); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestPasswdRoundTrip(t *testing.T) {
	users, err := ParsePasswd(samplePasswd)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParsePasswd(FormatPasswd(users))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(users) {
		t.Fatal("round trip lost users")
	}
	for i := range users {
		if users[i] != again[i] {
			t.Fatalf("row %d: %+v != %+v", i, users[i], again[i])
		}
	}
}

func TestParseShadow(t *testing.T) {
	entries, err := ParseShadow(sampleShadow)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[2].Hash != "!" {
		t.Fatalf("entries: %+v", entries)
	}
}

func TestParseGroup(t *testing.T) {
	groups, err := ParseGroup(sampleGroup)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[1].Name != "users" || len(groups[1].Members) != 2 {
		t.Fatalf("users: %+v", groups[1])
	}
	if groups[0].Password != "" {
		t.Fatal("'x' must mean no password")
	}
	if groups[2].Password == "" {
		t.Fatal("ops password lost")
	}
}

func TestPasswordHashing(t *testing.T) {
	h := HashPassword("secret", "salt1")
	if !strings.HasPrefix(h, "$5$salt1$") {
		t.Fatalf("hash format: %q", h)
	}
	if !VerifyPassword(h, "secret") {
		t.Fatal("correct password rejected")
	}
	if VerifyPassword(h, "wrong") {
		t.Fatal("wrong password accepted")
	}
	if VerifyPassword(h, "") {
		t.Fatal("empty password accepted")
	}
	if HashPassword("secret", "salt2") == h {
		t.Fatal("salt ignored")
	}
	// Locked and malformed entries never verify.
	for _, locked := range []string{"!", "*", "", "$1$old$style", "!$5$salt1$deadbeef"} {
		if VerifyPassword(locked, "secret") {
			t.Errorf("locked hash %q verified", locked)
		}
	}
}

// Property: verify(hash(p, s), p) holds for arbitrary printable passwords
// and salts; verify with any *different* password fails.
func TestHashVerifyProperty(t *testing.T) {
	f := func(p, other, salt string) bool {
		if strings.ContainsAny(p, "$") || strings.ContainsAny(salt, "$") {
			return true
		}
		h := HashPassword(p, salt)
		if !VerifyPassword(h, p) {
			return false
		}
		if other != p && VerifyPassword(h, other) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func newDBFS(t *testing.T) *vfs.FS {
	t.Helper()
	fs := vfs.New()
	if _, err := fs.Mkdir(vfs.RootCred, "/etc", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	write := func(path, content string, mode vfs.Mode) {
		if err := fs.WriteFile(vfs.RootCred, path, []byte(content), mode, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	write(PasswdFile, samplePasswd, 0o644)
	write(ShadowFile, sampleShadow, 0o600)
	write(GroupFile, sampleGroup, 0o644)
	return fs
}

func TestDBLookups(t *testing.T) {
	db := NewDB(newDBFS(t))
	u, err := db.LookupUser("alice")
	if err != nil || u.UID != 1000 {
		t.Fatalf("lookup alice: %+v %v", u, err)
	}
	u, err = db.LookupUID(1001)
	if err != nil || u.Name != "bob" {
		t.Fatalf("lookup 1001: %+v %v", u, err)
	}
	if _, err := db.LookupUser("mallory"); err == nil {
		t.Fatal("phantom user")
	}
	g, err := db.LookupGroup("ops")
	if err != nil || g.GID != 20 {
		t.Fatalf("lookup ops: %+v %v", g, err)
	}
	g, err = db.LookupGID(100)
	if err != nil || g.Name != "users" {
		t.Fatalf("lookup 100: %+v %v", g, err)
	}
	names, err := db.GroupNamesOf("alice")
	if err != nil {
		t.Fatal(err)
	}
	// alice: users (primary) + ops (member)
	if len(names) != 2 {
		t.Fatalf("alice groups: %v", names)
	}
	gids, err := db.GroupIDsOf("alice")
	if err != nil || len(gids) != 1 || gids[0] != 20 {
		t.Fatalf("alice gids: %v %v", gids, err)
	}
}

// TestCallerOwnsResults: the parsed tables are shared by every reader of
// the same bytes, so whatever a lookup returns is the caller's to modify
// without changing what the next lookup sees.
func TestCallerOwnsResults(t *testing.T) {
	db := NewDB(newDBFS(t))
	wantUsers, _ := ParsePasswd(samplePasswd)
	wantGroups, _ := ParseGroup(sampleGroup)
	scribble := func() {
		users, err := db.Users()
		if err != nil {
			t.Fatal(err)
		}
		for i := range users {
			users[i] = User{Name: "x", Shell: "/bin/evil"}
		}
		groups, err := db.Groups()
		if err != nil {
			t.Fatal(err)
		}
		for i := range groups {
			for j := range groups[i].Members {
				groups[i].Members[j] = "mallory"
			}
			groups[i].Members = append(groups[i].Members, "mallory")
			groups[i].GID = -1
		}
		u, _ := db.LookupUser("alice")
		u.Shell = "/bin/evil" // as vipw edits the record it looked up
		u, _ = db.LookupUID(1001)
		u.UID = 0
		byName, _ := db.LookupGroup("users")
		byGID, _ := db.LookupGID(20)
		for _, g := range []*Group{byName, byGID} {
			g.Members[0] = "mallory"
			g.Name = "wheel"
		}
	}
	for round := 0; round < 2; round++ {
		scribble()
		users, err := db.Users()
		if err != nil || !reflect.DeepEqual(users, wantUsers) {
			t.Fatalf("round %d: users %+v %v", round, users, err)
		}
		groups, err := db.Groups()
		if err != nil || !reflect.DeepEqual(groups, wantGroups) {
			t.Fatalf("round %d: groups %+v %v", round, groups, err)
		}
		if u, _ := db.LookupUser("alice"); *u != wantUsers[1] {
			t.Fatalf("round %d: alice %+v", round, u)
		}
		if g, _ := db.LookupGID(100); !reflect.DeepEqual(*g, wantGroups[1]) {
			t.Fatalf("round %d: users group %+v", round, g)
		}
	}
}

func TestShadowHash(t *testing.T) {
	db := NewDB(newDBFS(t))
	h, err := db.ShadowHash("alice")
	if err != nil || !strings.Contains(h, "pgalice") {
		t.Fatalf("hash: %q %v", h, err)
	}
	if _, err := db.ShadowHash("mallory"); err == nil {
		t.Fatal("phantom shadow entry")
	}
}

func TestFragmentAndSynthesize(t *testing.T) {
	fs := newDBFS(t)
	if err := Fragment(fs); err != nil {
		t.Fatal(err)
	}
	// Per-user files exist with the right ownership and mode.
	ino, err := fs.Lookup(vfs.RootCred, PasswdsDir+"/alice")
	if err != nil {
		t.Fatal(err)
	}
	if ino.UID != 1000 || ino.Mode.Perm()&0o777 != 0o600 {
		t.Fatalf("fragment perms: uid=%d mode=%s", ino.UID, ino.Mode)
	}
	shadowIno, err := fs.Lookup(vfs.RootCred, ShadowsDir+"/alice")
	if err != nil || shadowIno.UID != 1000 {
		t.Fatalf("shadow fragment: %+v %v", shadowIno, err)
	}
	groupIno, err := fs.Lookup(vfs.RootCred, GroupsDir+"/ops")
	if err != nil || groupIno.GID != 20 || groupIno.Mode.Perm()&0o777 != 0o660 {
		t.Fatalf("group fragment: %+v %v", groupIno, err)
	}
	// The fragmented shadow hash survives round-tripping.
	data, _ := fs.ReadFile(vfs.RootCred, ShadowsDir+"/alice")
	if !strings.Contains(string(data), "pgalice") {
		t.Fatalf("shadow content: %q", data)
	}

	// Mutate a fragment (as chsh would), then synthesize the legacy
	// files and observe the change.
	newLine := "alice:x:1000:100:Alice:/home/alice:/bin/zsh\n"
	if err := fs.WriteFile(vfs.RootCred, PasswdsDir+"/alice", []byte(newLine), 0o600, 1000, 100); err != nil {
		t.Fatal(err)
	}
	if err := SynthesizeLegacy(fs); err != nil {
		t.Fatal(err)
	}
	db := NewDB(fs)
	u, err := db.LookupUser("alice")
	if err != nil || u.Shell != "/bin/zsh" {
		t.Fatalf("synthesized: %+v %v", u, err)
	}
	// Other users are unharmed.
	if u, _ := db.LookupUser("bob"); u.Shell != "/bin/zsh" && u.Shell == "" {
		t.Fatalf("bob lost: %+v", u)
	}
}

func TestFragmentIdempotent(t *testing.T) {
	fs := newDBFS(t)
	if err := Fragment(fs); err != nil {
		t.Fatal(err)
	}
	// A second fragmentation with identical inputs must not generate
	// watch events (monitord convergence).
	w := fs.Watch(PasswdsDir)
	defer w.Close()
	if err := Fragment(fs); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-w.C:
		t.Fatalf("unexpected event: %+v", ev)
	default:
	}
}

func TestValidatePasswdLine(t *testing.T) {
	good := "alice:x:1000:100:Alice A:/home/alice:/bin/zsh"
	if err := ValidatePasswdLine(good, "alice", 1000, 100); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		line string
		name string
		uid  int
	}{
		{"eve:x:1000:100:::/bin/sh", "alice", 1000},                      // renames
		{"alice:x:0:100:::/bin/sh", "alice", 1000},                       // uid change
		{"alice:x:1000:100:::/bin/sh\nx:x:0:0:::/bin/sh", "alice", 1000}, // two records
		{"alice:x:1000", "alice", 1000},                                  // malformed
	}
	for _, c := range cases {
		if err := ValidatePasswdLine(c.line, c.name, c.uid, 100); err == nil {
			t.Errorf("accepted %q", c.line)
		}
	}
}
