package core

import (
	"maps"

	"protego/internal/accountdb"
	"protego/internal/authsvc"
	"protego/internal/kernel"
	"protego/internal/vfs"
)

// CloneInto copies the module's policy state onto a freshly cloned
// kernel and installs it there: the new module is registered in k's LSM
// chain, and the shared /proc/protego inodes are privatized and rebound
// to the new module's handlers. Unlike Install, no default netfilter
// rules are appended (the cloned table already carries them) and no
// monitord sync runs — the golden image was synced before the snapshot.
//
// Parsed policy objects (sudoers, ppp options) are immutable once
// installed, so the pointers are shared; everything mutable — mount
// whitelist, bind table, file grants, toggles — is copied. The identity
// cache starts fresh, and the policy outcomes and mount-index hits count
// on k's own tracer, giving per-tenant counters.
func (m *Module) CloneInto(k *kernel.Kernel, db *accountdb.DB, auth *authsvc.Service) (*Module, error) {
	c := New(k, db, auth)
	m.mu.RLock()
	c.mounts = append([]MountRule(nil), m.mounts...)
	c.bindTable = maps.Clone(m.bindTable)
	c.sudoers = m.sudoers
	c.ppp = m.ppp
	for path, bins := range m.fileGrants {
		c.fileGrants[path] = append([]string(nil), bins...)
	}
	c.allowUnprivRaw = m.allowUnprivRaw
	c.requireShadowAuth = m.requireShadowAuth
	c.allowSuFallback = m.allowSuFallback
	c.brokenMountPolicy = m.brokenMountPolicy
	m.mu.RUnlock()
	c.mu.Lock()
	c.rebuildMountIndexLocked()
	c.mu.Unlock()
	auth.SetWindow(m.auth.Window())

	k.LSM.Register(c)
	if err := c.rebindProc(); err != nil {
		return nil, err
	}
	return c, nil
}

// rebindProc repoints the /proc/protego files at this module's handlers;
// the shared snapshot inodes are copied up first so the parent machine's
// policy interface stays its own.
func (m *Module) rebindProc() error {
	files := []struct {
		path  string
		read  vfs.ProcReadFunc
		write vfs.ProcWriteFunc
	}{
		{ProcMounts, m.readMounts, m.writeMounts},
		{ProcBind, m.readBind, m.writeBind},
		{ProcDelegation, m.readDelegation, m.writeDelegation},
		{ProcPPP, m.readPPP, m.writePPP},
		{ProcStatus, m.readStatus, nil},
	}
	for _, f := range files {
		if err := m.k.FS.RebindProc(f.path, f.read, f.write); err != nil {
			return err
		}
	}
	return nil
}
