package accountdb

import (
	"fmt"
	"slices"
	"strings"

	"protego/internal/errno"
	"protego/internal/vfs"
)

// Fragmented database locations (§4.4): one file per account, owned by the
// account, mode rw-------, inside root-owned rwxr-xr-x directories so
// unprivileged users cannot add accounts.
const (
	PasswdFile = "/etc/passwd"
	ShadowFile = "/etc/shadow"
	GroupFile  = "/etc/group"
	PasswdsDir = "/etc/passwds"
	ShadowsDir = "/etc/shadows"
	GroupsDir  = "/etc/groups"
)

// DB reads the account databases from a simulated file system. Reads are
// performed with kernel (root) credentials: the DB is consulted by the
// kernel's LSM and trusted services, never directly by untrusted tasks.
//
// Every file is read on every call, but parsed only when its bytes differ
// from the last parse of that inode (vfs.FS.ReadFileParsed), so the parsed
// tables are shared by every DB, machine and clone that reads the same
// bytes. Exported results are therefore copies the caller owns.
type DB struct {
	fs *vfs.FS
}

// NewDB creates a database view over fs.
func NewDB(fs *vfs.FS) *DB { return &DB{fs: fs} }

// format is one account-file syntax: its parser and the memo key that
// names it.
type format[T any] struct {
	key   string
	parse func(string) ([]T, error)
}

var (
	passwdFormat = format[User]{"passwd", ParsePasswd}
	shadowFormat = format[ShadowEntry]{"shadow", ParseShadow}
	groupFormat  = format[Group]{"group", ParseGroup}
)

// table is one memoized parse: the records, or the error the parse
// failed with. The records are shared; never modify them.
type table[T any] struct {
	rows []T
	err  error
}

// read reads path in format f. The error is the read's; a parse error is
// in the table.
func (f format[T]) read(fs *vfs.FS, path string) (table[T], error) {
	v, err := fs.ReadFileParsed(vfs.RootCred, path, f.key, func(data string) any {
		rows, err := f.parse(data)
		return table[T]{rows, err}
	})
	if err != nil {
		return table[T]{}, err
	}
	return v.(table[T]), nil
}

// rows returns the shared records of path in format f, or the read or
// parse error.
func (f format[T]) rows(fs *vfs.FS, path string) ([]T, error) {
	t, err := f.read(fs, path)
	if err != nil {
		return nil, err
	}
	return t.rows, t.err
}

// own returns the caller's copy of a shared record.
func own[T any](r *T) *T {
	c := *r
	return &c
}

// ownGroup returns the caller's copy of a shared group, members included.
func ownGroup(g *Group) *Group {
	c := own(g)
	c.Members = slices.Clone(g.Members)
	return c
}

// Users returns all passwd records (from the legacy shared file).
func (db *DB) Users() ([]User, error) {
	users, err := passwdFormat.rows(db.fs, PasswdFile)
	if err != nil {
		return nil, err
	}
	return slices.Clone(users), nil
}

// user finds the shared record of the named user.
func (db *DB) user(name string) (*User, error) {
	users, err := passwdFormat.rows(db.fs, PasswdFile)
	if err != nil {
		return nil, err
	}
	for i := range users {
		if users[i].Name == name {
			return &users[i], nil
		}
	}
	return nil, errno.ENOENT
}

// LookupUser finds a user by name.
func (db *DB) LookupUser(name string) (*User, error) {
	u, err := db.user(name)
	if err != nil {
		return nil, err
	}
	return own(u), nil
}

// LookupUID finds a user by uid.
func (db *DB) LookupUID(uid int) (*User, error) {
	users, err := passwdFormat.rows(db.fs, PasswdFile)
	if err != nil {
		return nil, err
	}
	for i := range users {
		if users[i].UID == uid {
			return own(&users[i]), nil
		}
	}
	return nil, errno.ENOENT
}

// Groups returns all group records.
func (db *DB) Groups() ([]Group, error) {
	groups, err := groupFormat.rows(db.fs, GroupFile)
	if err != nil {
		return nil, err
	}
	out := slices.Clone(groups)
	for i := range out {
		out[i].Members = slices.Clone(out[i].Members)
	}
	return out, nil
}

// LookupGroup finds a group by name.
func (db *DB) LookupGroup(name string) (*Group, error) {
	groups, err := groupFormat.rows(db.fs, GroupFile)
	if err != nil {
		return nil, err
	}
	for i := range groups {
		if groups[i].Name == name {
			return ownGroup(&groups[i]), nil
		}
	}
	return nil, errno.ENOENT
}

// LookupGID finds a group by gid.
func (db *DB) LookupGID(gid int) (*Group, error) {
	groups, err := groupFormat.rows(db.fs, GroupFile)
	if err != nil {
		return nil, err
	}
	for i := range groups {
		if groups[i].GID == gid {
			return ownGroup(&groups[i]), nil
		}
	}
	return nil, errno.ENOENT
}

// GroupNamesOf returns the names of the groups user belongs to (primary
// group plus memberships).
func (db *DB) GroupNamesOf(user string) ([]string, error) {
	u, err := db.user(user)
	if err != nil {
		return nil, err
	}
	groups, err := groupFormat.rows(db.fs, GroupFile)
	if err != nil {
		return nil, err
	}
	var names []string
	for i := range groups {
		g := &groups[i]
		if g.GID == u.GID {
			names = append(names, g.Name)
			continue
		}
		if slices.Contains(g.Members, user) {
			names = append(names, g.Name)
		}
	}
	return names, nil
}

// GroupIDsOf returns the supplementary gids of user (excluding the primary).
func (db *DB) GroupIDsOf(user string) ([]int, error) {
	u, err := db.user(user)
	if err != nil {
		return nil, err
	}
	groups, err := groupFormat.rows(db.fs, GroupFile)
	if err != nil {
		return nil, err
	}
	var gids []int
	for i := range groups {
		g := &groups[i]
		if g.GID != u.GID && slices.Contains(g.Members, user) {
			gids = append(gids, g.GID)
		}
	}
	return gids, nil
}

// ShadowHash returns the stored password hash for user, consulting the
// fragmented per-user file first and falling back to the legacy shared
// shadow file.
func (db *DB) ShadowHash(user string) (string, error) {
	if entries, err := shadowFormat.rows(db.fs, ShadowsDir+"/"+user); err == nil && len(entries) == 1 {
		return entries[0].Hash, nil
	}
	entries, err := shadowFormat.rows(db.fs, ShadowFile)
	if err != nil {
		return "", err
	}
	for i := range entries {
		if entries[i].Name == user {
			return entries[i].Hash, nil
		}
	}
	return "", errno.ENOENT
}

// Fragment splits the shared database files into per-account files:
//
//	/etc/passwds/<user>  rw------- <user> <user-gid>  (one passwd line)
//	/etc/shadows/<user>  rw------- <user> <user-gid>  (one shadow line)
//	/etc/groups/<group>  rw-r----- root   <gid>       (one group line)
//
// The containing directories are rwxr-xr-x root:root so users cannot mint
// accounts. Existing fragments are overwritten from the shared files (the
// shared files remain authoritative at fragmentation time).
func Fragment(fs *vfs.FS) error {
	users, err := passwdFormat.rows(fs, PasswdFile)
	if err != nil {
		return err
	}
	shadow, err := shadowFormat.rows(fs, ShadowFile)
	if err != nil {
		return err
	}
	groups, err := groupFormat.rows(fs, GroupFile)
	if err != nil {
		return err
	}
	for _, dir := range []string{PasswdsDir, ShadowsDir, GroupsDir} {
		if !fs.Exists(vfs.RootCred, dir) {
			if _, err := fs.Mkdir(vfs.RootCred, dir, 0o755, 0, 0); err != nil {
				return fmt.Errorf("fragment: mkdir %s: %w", dir, err)
			}
		}
	}
	hashes := make(map[string]string, len(shadow))
	for i := range shadow {
		hashes[shadow[i].Name] = shadow[i].Hash
	}
	for i := range users {
		u := &users[i]
		if err := writeFragment(fs, PasswdsDir+"/"+u.Name, u.Line()+"\n", 0o600, u.UID, u.GID); err != nil {
			return err
		}
		se := ShadowEntry{Name: u.Name, Hash: hashes[u.Name]}
		if err := writeFragment(fs, ShadowsDir+"/"+u.Name, se.Line()+"\n", 0o600, u.UID, u.GID); err != nil {
			return err
		}
	}
	// Group fragments are root-owned but group-writable: membership and
	// group passwords are manageable by the group itself, matching DAC
	// granularity (§4.4).
	for i := range groups {
		g := &groups[i]
		if err := writeFragment(fs, GroupsDir+"/"+g.Name, g.Line()+"\n", 0o660, 0, g.GID); err != nil {
			return err
		}
	}
	return nil
}

func writeFragment(fs *vfs.FS, path, content string, mode vfs.Mode, uid, gid int) error {
	// Idempotence: skipping unchanged writes lets the monitoring daemon's
	// two-way synchronization converge instead of ping-ponging events.
	if existing, err := fs.ReadFile(vfs.RootCred, path); err == nil && string(existing) == content {
		return nil
	}
	if err := fs.WriteFile(vfs.RootCred, path, []byte(content), mode, uid, gid); err != nil {
		return fmt.Errorf("fragment: write %s: %w", path, err)
	}
	// WriteFile of an existing file keeps its ownership; enforce ours.
	if err := fs.Chown(vfs.RootCred, path, uid, gid); err != nil {
		return err
	}
	return fs.Chmod(vfs.RootCred, path, mode)
}

// SynthesizeLegacy rebuilds the shared /etc/passwd, /etc/shadow, and
// /etc/group files from the per-account fragments — the backward
// compatibility direction maintained by the monitoring daemon so
// applications that read the legacy formats keep working (§2).
func SynthesizeLegacy(fs *vfs.FS) error {
	users, err := readFragments(fs, PasswdsDir, passwdFormat, "fragment")
	if err != nil {
		return err
	}
	shadows, err := readFragments(fs, ShadowsDir, shadowFormat, "shadow fragment")
	if err != nil {
		return err
	}
	groups, err := readFragments(fs, GroupsDir, groupFormat, "group fragment")
	if err != nil {
		return err
	}
	// An empty fragment set means the tree was never (or only partially)
	// populated; rebuilding from it would wipe every account. Fail instead
	// and leave the legacy files as they are.
	if len(users) == 0 {
		return fmt.Errorf("synthesize: no passwd fragments, refusing to empty %s", PasswdFile)
	}
	if err := writeIfChanged(fs, PasswdFile, FormatPasswd(users), 0o644, 0, 0); err != nil {
		return err
	}
	if err := writeIfChanged(fs, ShadowFile, FormatShadow(shadows), 0o600, 0, 42); err != nil {
		return err
	}
	return writeIfChanged(fs, GroupFile, FormatGroup(groups), 0o644, 0, 0)
}

// readFragments returns the records of every fragment in dir, in name
// order, as a slice of their own.
func readFragments[T any](fs *vfs.FS, dir string, f format[T], what string) ([]T, error) {
	names, err := fs.ReadDir(vfs.RootCred, dir)
	if err != nil {
		return nil, err
	}
	var all []T
	for _, name := range names {
		t, err := f.read(fs, dir+"/"+name)
		if err != nil {
			return nil, err
		}
		if t.err != nil {
			return nil, fmt.Errorf("synthesize: %s %s: %w", what, name, t.err)
		}
		all = append(all, t.rows...)
	}
	return all, nil
}

// writeIfChanged writes content to path only when it differs, keeping the
// monitoring daemon's bidirectional sync convergent.
func writeIfChanged(fs *vfs.FS, path, content string, mode vfs.Mode, uid, gid int) error {
	if existing, err := fs.ReadFile(vfs.RootCred, path); err == nil && string(existing) == content {
		return nil
	}
	return fs.WriteFile(vfs.RootCred, path, []byte(content), mode, uid, gid)
}

// ValidatePasswdLine checks that a user-supplied passwd line is a sane
// single record for the named user — the validation passwd/chsh perform
// before touching the database, now applied to per-user fragments.
func ValidatePasswdLine(line, user string, uid, gid int) error {
	if strings.ContainsAny(line, "\n") {
		return fmt.Errorf("record must be a single line")
	}
	users, err := ParsePasswd(line)
	if err != nil {
		return err
	}
	if len(users) != 1 {
		return fmt.Errorf("expected exactly one record")
	}
	u := users[0]
	if u.Name != user {
		return fmt.Errorf("record renames user %q to %q", user, u.Name)
	}
	if u.UID != uid || u.GID != gid {
		return fmt.Errorf("record changes uid/gid")
	}
	for _, field := range []string{u.Gecos, u.Home, u.Shell} {
		if strings.ContainsAny(field, ":") {
			return fmt.Errorf("field contains ':'")
		}
	}
	return nil
}
