// Package core implements the Protego LSM — the paper's primary
// contribution. It migrates the policies historically encoded in
// setuid-to-root binaries into the (simulated) kernel:
//
//   - a user-mount whitelist synchronized from /etc/fstab (§4.2, Figure 1)
//   - a privileged-port allocation table from /etc/bind (§4.1.3)
//   - delegation rules from /etc/sudoers with authentication recency and
//     deferred setuid-on-exec (§4.3)
//   - unprivileged raw sockets subject to netfilter rules (§4.1.1)
//   - PPP route/modem policies with route-conflict checking (§4.1.2)
//   - per-account credential files and trusted-binary file grants (§4.4)
//
// The module exposes /proc/protego/* configuration files using a simple
// grammar; the monitoring daemon (internal/monitord) keeps them
// synchronized with the legacy configuration files.
package core

import (
	"sync"

	"protego/internal/accountdb"
	"protego/internal/authsvc"
	"protego/internal/kernel"
	"protego/internal/lsm"
	"protego/internal/netfilter"
	"protego/internal/policy"
	"protego/internal/trace"
)

// Module is the Protego LSM.
type Module struct {
	lsm.Base

	k    *kernel.Kernel
	db   *accountdb.DB
	auth *authsvc.Service

	mu sync.RWMutex

	// Policy state (the in-kernel mirrors of the legacy config files).
	mounts     []MountRule
	bindTable  map[bindKey]BindTarget
	sudoers    *policy.Sudoers
	ppp        *policy.PPPOptions
	fileGrants map[string][]string // path -> binaries allowed despite DAC

	// Compiled mount-whitelist indexes, rebuilt on every rule change so
	// MountCheck/UmountCheck are map probes instead of linear scans.
	mountIdx    map[mountKey][]compiledMountRule
	umountUsers map[string]bool // mount points carrying "users"

	// Feature toggles; all default to the paper's configuration.
	allowUnprivRaw    bool
	requireShadowAuth bool
	allowSuFallback   bool

	// brokenMountPolicy deliberately grants every unprivileged mount,
	// bypassing the whitelist. It exists ONLY so the differential fuzzer
	// can prove it detects a broken policy; nothing in the simulated
	// system sets it.
	brokenMountPolicy bool

	// identity caches the uid<->name mapping so hot-path policy checks
	// do not reparse /etc/passwd (monitord invalidates on change).
	identity identityCache

	// Stats reads the policy outcomes for tests and the evaluation
	// harness.
	Stats Stats
}

// Stats reads the module's policy outcomes. They count on the kernel's
// tracer (as the core:* decision counters), so a cloned machine's module
// starts from zero on the clone's own tracer.
type Stats struct{ tr *trace.Tracer }

// StatsSnapshot is a point-in-time copy of the policy outcomes, its
// fields in the order of their tracer cells (trace.MountGrant to
// trace.FileDenial).
type StatsSnapshot struct {
	MountGrants   int64
	MountDenials  int64
	BindGrants    int64
	BindDenials   int64
	SetuidGrants  int64
	SetuidDefers  int64
	SetuidDenials int64
	RawSockGrants int64
	RouteGrants   int64
	RouteDenials  int64
	FileGrants    int64
	FileDenials   int64
}

// Snapshot reads every outcome once.
func (s *Stats) Snapshot() StatsSnapshot {
	var v [trace.FileDenial - trace.MountGrant + 1]int64
	for i := range v {
		v[i] = int64(s.tr.Load(trace.MountGrant + trace.Cell(i)))
	}
	return StatsSnapshot{v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9], v[10], v[11]}
}

// New creates the Protego module over the kernel's substrates. Call
// Install to register it with the kernel, set up the /proc interface, and
// load the default netfilter rules.
func New(k *kernel.Kernel, db *accountdb.DB, auth *authsvc.Service) *Module {
	return &Module{
		k:                 k,
		db:                db,
		auth:              auth,
		bindTable:         make(map[bindKey]BindTarget),
		ppp:               policy.DefaultPPPOptions(),
		fileGrants:        make(map[string][]string),
		allowUnprivRaw:    true,
		requireShadowAuth: true,
		allowSuFallback:   true,
		Stats:             Stats{tr: k.Trace},
	}
}

// Install registers the module in the kernel's LSM chain, creates the
// /proc/protego configuration files, and installs the default raw-socket
// netfilter rules.
func (m *Module) Install() error {
	m.k.LSM.Register(m)
	if err := m.setupProc(); err != nil {
		return err
	}
	for _, r := range netfilter.ProtegoDefaultRules() {
		if err := m.k.Filter.Append("OUTPUT", r); err != nil {
			return err
		}
	}
	return nil
}

// Name implements lsm.Module.
func (m *Module) Name() string { return "protego" }

// Auth returns the authentication service (used by trusted utilities).
func (m *Module) Auth() *authsvc.Service { return m.auth }

// SetSudoers replaces the delegation policy and propagates the
// timestamp_timeout to the authentication service.
func (m *Module) SetSudoers(s *policy.Sudoers) {
	m.mu.Lock()
	m.sudoers = s
	m.mu.Unlock()
	if s != nil {
		m.auth.SetWindow(s.TimestampTimeout)
	}
}

// Sudoers returns the current delegation policy (may be nil).
func (m *Module) Sudoers() *policy.Sudoers {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.sudoers
}

// SetPPP replaces the PPP policy.
func (m *Module) SetPPP(o *policy.PPPOptions) {
	m.mu.Lock()
	m.ppp = o
	m.mu.Unlock()
}

// AllowFileReaders grants the listed binaries read access to path despite
// DAC — the ssh-keysign host-key rule of §4.4/Table 4 ("restrict file
// access to specific binaries instead of, or in addition to, user IDs").
func (m *Module) AllowFileReaders(path string, binaries ...string) {
	m.mu.Lock()
	m.fileGrants[path] = append(m.fileGrants[path], binaries...)
	m.mu.Unlock()
}

// SetAllowUnprivRaw toggles the raw-socket relaxation (for ablations).
func (m *Module) SetAllowUnprivRaw(on bool) {
	m.mu.Lock()
	m.allowUnprivRaw = on
	m.mu.Unlock()
}

// TestHookBreakMountPolicy disables the mount whitelist check, granting
// every unprivileged mount request. This is a deliberate vulnerability
// switch for the differential fuzzer's self-test (it must catch the
// resulting invariant violations and shrink them); it has no legitimate
// runtime use.
func (m *Module) TestHookBreakMountPolicy(on bool) {
	m.mu.Lock()
	m.brokenMountPolicy = on
	m.mu.Unlock()
}

// SetRequireShadowAuth toggles the reauthentication-before-shadow-read
// policy (for ablations).
func (m *Module) SetRequireShadowAuth(on bool) {
	m.mu.Lock()
	m.requireShadowAuth = on
	m.mu.Unlock()
}

// SetAllowSuFallback toggles the target-password (su) transition policy.
func (m *Module) SetAllowSuFallback(on bool) {
	m.mu.Lock()
	m.allowSuFallback = on
	m.mu.Unlock()
}

func (m *Module) suFallbackEnabled() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.allowSuFallback
}

var _ lsm.Module = (*Module)(nil)
