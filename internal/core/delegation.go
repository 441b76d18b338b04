package core

import (
	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/lsm"
	"protego/internal/policy"
	"protego/internal/trace"
)

// Capability shorthands used across the module.
const (
	capSysAdmin = caps.CAP_SYS_ADMIN
	capSetuid   = caps.CAP_SETUID
	capSetgid   = caps.CAP_SETGID
	capNetRaw   = caps.CAP_NET_RAW
	capNetAdmin = caps.CAP_NET_ADMIN
)

// blobPendingSetuid is the task security-blob key recording a deferred
// setuid-on-exec (§4.3): setuid reported success, but the credential
// change happens at the next exec once the target binary is validated.
const blobPendingSetuid = "protego.pending_setuid"

type pendingSetuid struct {
	TargetUID int
}

// PendingSetuid reports the deferred target uid on t, if any (exposed for
// tests and the simulator shell).
func PendingSetuid(t lsm.Task) (int, bool) {
	v := t.SecurityBlob(blobPendingSetuid)
	if v == nil {
		return 0, false
	}
	p, ok := v.(pendingSetuid)
	return p.TargetUID, ok
}

// SetuidCheck mediates lateral transitions (§4.3). The kernel consults this
// hook only when base policy already refused (no CAP_SETUID, target not in
// {ruid, suid}). The decision procedure follows the paper:
//
//  1. Look up a delegation rule permitting (user → target) in the
//     synchronized sudoers policy. No rule → no opinion (base EPERM).
//  2. Unless the rule says NOPASSWD, require a recent authentication of
//     the *current* user, invoking the trusted authentication service to
//     take over the terminal if needed.
//  3. If the rule permits any command (ALL), grant the change immediately:
//     every check has succeeded, so privilege may now be conferred.
//  4. If the rule restricts commands, report success but defer the change
//     to exec (setuid-on-exec), where the requested binary is validated.
func (m *Module) SetuidCheck(t lsm.Task, targetUID int) (lsm.Decision, error) {
	sudoers := m.Sudoers()
	if sudoers == nil {
		return lsm.NoOpinion, nil
	}
	user := m.userName(t.UID())
	target := m.userName(targetUID)
	if user == "" || target == "" {
		return lsm.NoOpinion, nil
	}
	grant, ok := sudoers.LookupTransition(user, m.userGroups(user), target)
	if !ok {
		// The su policy (§4.3): with no delegation rule, knowing the
		// *target* user's password is both authentication and
		// authorization. The trusted service collects it; failure
		// falls through to base policy (EPERM).
		if m.suFallbackEnabled() {
			if err := m.auth.AuthenticateUser(t, target, false); err == nil {
				m.k.Trace.Count(trace.SetuidGrant)
				return lsm.Grant, nil
			}
		}
		m.k.Trace.Count(trace.SetuidDenial)
		return lsm.NoOpinion, nil
	}
	if !grant.NoPasswd {
		if err := m.auth.EnsureRecent(t, user); err != nil {
			// The caller may be running su, not sudo: knowing the
			// *target's* password authorizes the transition (§4.3).
			if m.suFallbackEnabled() && m.auth.AuthenticateUser(t, target, false) == nil {
				m.k.Trace.Count(trace.SetuidGrant)
				return lsm.Grant, nil
			}
			m.k.Auditf("protego: setuid auth failed: uid=%d target=%d", t.UID(), targetUID)
			m.k.Trace.Count(trace.SetuidDenial)
			return lsm.Deny, errno.EPERM
		}
	}
	if grant.AnyCommand {
		m.k.Trace.Count(trace.SetuidGrant)
		return lsm.Grant, nil
	}
	t.SetSecurityBlob(blobPendingSetuid, pendingSetuid{TargetUID: targetUID})
	m.k.Trace.Count(trace.SetuidDefer)
	return lsm.DeferToExec, nil
}

// SetgidCheck mediates group transitions. Two policies grant beyond base:
// password-protected groups (the newgrp flow — authenticate with the
// group's password), and explicit sudoers delegation to "%group" targets.
func (m *Module) SetgidCheck(t lsm.Task, targetGID int) (lsm.Decision, error) {
	group, err := m.db.LookupGID(targetGID)
	if err != nil {
		return lsm.NoOpinion, nil
	}
	if group.Password != "" {
		if err := m.auth.AuthenticateGroup(t, group.Name); err != nil {
			m.k.Auditf("protego: setgid group auth failed: uid=%d gid=%d", t.UID(), targetGID)
			return lsm.Deny, errno.EPERM
		}
		return lsm.Grant, nil
	}
	sudoers := m.Sudoers()
	if sudoers == nil {
		return lsm.NoOpinion, nil
	}
	user := m.userName(t.UID())
	if user == "" {
		return lsm.NoOpinion, nil
	}
	grant, ok := sudoers.LookupTransition(user, m.userGroups(user), "%"+group.Name)
	if !ok {
		return lsm.NoOpinion, nil
	}
	if !grant.NoPasswd {
		if err := m.auth.EnsureRecent(t, user); err != nil {
			return lsm.Deny, errno.EPERM
		}
	}
	return lsm.Grant, nil
}

// ExecCheck completes a deferred setuid-on-exec: the requested binary must
// be permitted for the pending (user → target) pair, or the exec fails
// with EPERM (the paper's deliberate change in error behaviour). On
// success the environment is sanitized per the sudoers env_keep policy and
// the kernel applies the credential change.
func (m *Module) ExecCheck(t lsm.Task, req *lsm.ExecRequest) (*lsm.CredUpdate, error) {
	v := t.SecurityBlob(blobPendingSetuid)
	if v == nil {
		return nil, nil
	}
	t.SetSecurityBlob(blobPendingSetuid, nil)
	pending, ok := v.(pendingSetuid)
	if !ok {
		return nil, errno.EPERM
	}
	sudoers := m.Sudoers()
	if sudoers == nil {
		return nil, errno.EPERM
	}
	user := m.userName(t.UID())
	target := m.userName(pending.TargetUID)
	if user == "" || target == "" {
		return nil, errno.EPERM
	}
	grant, allowed := sudoers.LookupCommand(user, m.userGroups(user), target, req.Path)
	if !allowed {
		// "The authentication service may also ask for the target
		// user's password at this point" (§4.3): the su flow, where
		// knowing the target's password authorizes the exec.
		if m.suFallbackEnabled() && m.auth.AuthenticateUser(t, target, false) == nil {
			grant = policy.Grant{}
		} else {
			m.k.Auditf("protego: setuid-on-exec denied: %s -> %s exec %s", user, target, req.Path)
			m.k.Trace.Count(trace.SetuidDenial)
			return nil, errno.EPERM
		}
	}
	req.Env = sudoers.SanitizeEnv(req.Env, grant)
	uid := pending.TargetUID
	update := &lsm.CredUpdate{UID: &uid, DropGroups: true}
	if tu, err := m.db.LookupUser(target); err == nil {
		g := tu.GID
		update.GID = &g
		if groups, err := m.db.GroupIDsOf(target); err == nil {
			update.Groups = groups
			if update.Groups == nil {
				update.Groups = []int{}
			}
		}
	}
	m.k.Trace.Count(trace.SetuidGrant)
	return update, nil
}
