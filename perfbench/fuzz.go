package main

import (
	"fmt"
	"time"

	"protego/internal/difffuzz"
	"protego/internal/exploits"
	"protego/internal/kernel"
	"protego/internal/seccomp"
	"protego/internal/seccomp/profiles"
	"protego/internal/vulngen"
	"protego/internal/world"
)

// difffuzz and vulngen: each op drives a baseline/Protego pair inside the
// program (a differential trace, a generated environment), so they report
// pairs only. Their traced runs decompose the opaque op into the public
// calls it is made of, replayed in the same order on the same seed.

const (
	fuzzRound    = 4  // difffuzz traces per round
	vulngenRound = 5  // vulngen environments per round: one of each shape
	decomposeN   = 40 // ops decomposed by a traced run's probes
)

// goldenSetup is the set-up a fresh process pays before the first op of
// either workload: boot each image, freeze it into a snapshot and stamp a
// clone. difffuzz and exploits keep golden snapshots of their own, built
// the same way on first use (the warm-up rounds trigger it, once per
// process), so the benchmark keeps only the boot times and lets its own
// machines go: the live heap holds the program's state alone.
func goldenSetup() (buildMs float64, err error) {
	pair, err := buildPair()
	if err != nil {
		return 0, err
	}
	for _, m := range pair.m {
		if _, err := m.Snapshot().Clone(); err != nil {
			return 0, fmt.Errorf("clone golden: %w", err)
		}
	}
	return pair.buildMs(), nil
}

type diffFixture struct {
	buildMs float64
	seed    int64
	gen     *difffuzz.Generator
	audit   *seccomp.ProfileSet
	cfg     difffuzz.Config
	// deterministic counters over the traces run
	traces, steps, explained uint64
}

func setupDiffFuzz(seed int64) (fixture, error) {
	audit, err := profiles.Load(kernel.ModeProtego)
	if err != nil {
		return nil, fmt.Errorf("load golden seccomp profiles: %w", err)
	}
	buildMs, err := goldenSetup()
	if err != nil {
		return nil, err
	}
	return &diffFixture{buildMs: buildMs, seed: seed, gen: difffuzz.NewGenerator(seed), audit: audit,
		cfg: difffuzz.Config{SeccompAudit: audit}}, nil
}

func (f *diffFixture) round(mt *meter) error {
	start := time.Now()
	for i := 0; i < fuzzRound; i++ {
		tr := f.gen.Next()
		mt.nextOp()
		sid := mt.rec.begin("difffuzz", "difffuzz.run")
		t0 := time.Now()
		res, err := difffuzz.Run(tr, f.cfg)
		d := time.Since(t0)
		mt.rec.end(sid)
		if err != nil {
			return err
		}
		mt.pairOp(d)
		f.traces++
		f.steps += uint64(res.Steps)
		f.explained += uint64(res.Explained)
		if !mt.outcome(!res.Failed()) {
			mt.mismatchf("difffuzz trace %s: %s", tr, res)
		}
	}
	mt.round(fuzzRound, time.Since(start))
	return nil
}

func (f *diffFixture) counters() map[string]uint64 {
	return map[string]uint64{"difffuzz.traces": f.traces, "difffuzz.steps": f.steps, "difffuzz.explained": f.explained}
}

func (f *diffFixture) probe(rec *recorder, pl *layerReport) error {
	pl.set("world.build.ms", f.buildMs)
	traces := pl.delta("difffuzz.traces")
	pl.set("difffuzz.steps_per_trace", ratio(pl.delta("difffuzz.steps"), traces))
	pl.set("difffuzz.explained_per_trace", ratio(pl.delta("difffuzz.explained"), traces))

	// Decompose Run: Replay executes the same steps on a golden-clone pair
	// (the prep hook arms the same audit-mode seccomp module Run arms and
	// captures the machines), then Fingerprint runs as often as Run calls
	// it: once on Protego up front, then on both images after every step.
	gen := difffuzz.NewGenerator(f.seed)
	pl.selfBase = pl.traced.opID + 1
	op := pl.selfBase
	c0, c1 := map[string]uint64{}, map[string]uint64{}
	var fpTime, runTime time.Duration
	var fps, steps int
	for i := 0; i < decomposeN; i++ {
		tr := gen.Next()
		rec.setOp(0)
		sid := rec.begin("difffuzz", "difffuzz.run")
		t0 := time.Now()
		res, err := difffuzz.Run(tr, f.cfg)
		runTime += time.Since(t0)
		rec.end(sid)
		if err != nil {
			return err
		}

		var captured []*world.Machine
		prep := func(m *world.Machine) {
			if m.K.Mode == kernel.ModeProtego {
				m.K.LSM.Register(seccomp.NewModule(f.audit, true))
				m.K.SetSyscallGate(true)
			}
			addMachineCounters(c0, m.K.Mode.String(), m)
			captured = append(captured, m)
		}
		rec.setOp(op)
		op++
		sid = rec.begin("difffuzz", "difffuzz.replay")
		err = difffuzz.Replay(tr, prep)
		rec.end(sid)
		if err != nil {
			return err
		}
		for _, m := range captured {
			addMachineCounters(c1, m.K.Mode.String(), m)
			n := res.Steps
			if m.K.Mode == kernel.ModeProtego {
				n++
			}
			for j := 0; j < n; j++ {
				sid := rec.begin("world", "world.fingerprint")
				t0 := time.Now()
				m.Fingerprint()
				fpTime += time.Since(t0)
				rec.end(sid)
				fps++
			}
		}
		steps += res.Steps
	}
	pl.set("world.fingerprints_per_pair", float64(fps)/decomposeN)
	pl.set("world.fingerprint_share", ratio(float64(fpTime), float64(runTime)))
	pl.setCounterRatios(counterDelta(c0, c1), float64(steps))
	return nil
}

type vulnFixture struct {
	buildMs float64
	seed    int64
	gen     *vulngen.Generator
	// deterministic counters over the environments run
	envs, replays, concessions uint64
}

func setupVulngen(seed int64) (fixture, error) {
	buildMs, err := goldenSetup()
	if err != nil {
		return nil, err
	}
	return &vulnFixture{buildMs: buildMs, seed: seed, gen: vulngen.NewGenerator(seed)}, nil
}

func (f *vulnFixture) round(mt *meter) error {
	start := time.Now()
	for i := 0; i < vulngenRound; i++ {
		sc := f.gen.Scenario()
		mt.nextOp()
		sid := mt.rec.begin("vulngen", "vulngen.replay_scenario")
		t0 := time.Now()
		res, err := vulngen.ReplayScenario(sc, exploits.Corpus, vulngen.Config{})
		d := time.Since(t0)
		mt.rec.end(sid)
		if err != nil {
			return err
		}
		mt.pairOp(d)
		f.envs++
		f.replays += uint64(res.Replays)
		f.concessions += uint64(res.Concessions)
		if !mt.outcome(!res.Failing()) {
			mt.mismatchf("vulngen %s", res)
		}
	}
	mt.round(vulngenRound, time.Since(start))
	return nil
}

func (f *vulnFixture) counters() map[string]uint64 {
	return map[string]uint64{"vulngen.envs": f.envs, "vulngen.replays": f.replays, "vulngen.concessions": f.concessions}
}

func (f *vulnFixture) probe(rec *recorder, pl *layerReport) error {
	pl.set("world.build.ms", f.buildMs)
	envs := pl.delta("vulngen.envs")
	pl.set("vulngen.replays_per_env", ratio(pl.delta("vulngen.replays"), envs))
	pl.set("vulngen.concessions_per_env", ratio(pl.delta("vulngen.concessions"), envs))

	// Decompose ReplayScenario into its public calls: stamp the pair from
	// the golden images, apply the scenario to both, snapshot them, then
	// per CVE clone both snapshots and run the exploit on each clone.
	gen := vulngen.NewGenerator(f.seed)
	pl.selfBase = pl.traced.opID + 1
	op := pl.selfBase
	c0, c1 := map[string]uint64{}, map[string]uint64{}
	span := func(layer, name string, fn func() error) error {
		sid := rec.begin(layer, name)
		err := fn()
		rec.end(sid)
		return err
	}
	ops := 0
	for i := 0; i < decomposeN/vulngenRound; i++ {
		sc := gen.Scenario()
		rec.setOp(op)
		op++
		var snaps [2]*world.Snapshot
		for a, mode := range modes {
			var m *world.Machine
			if err := span("world", "world.clone", func() (err error) {
				m, err = exploits.NewMachine(mode)
				return err
			}); err != nil {
				return err
			}
			if err := span("vulngen", "vulngen.apply", func() error { return vulngen.Apply(m, sc) }); err != nil {
				return err
			}
			if err := span("world", "world.snapshot", func() error { snaps[a] = m.Snapshot(); return nil }); err != nil {
				return err
			}
		}
		for _, cve := range exploits.Corpus {
			for a := range modes {
				var m *world.Machine
				if err := span("world", "world.clone", func() (err error) {
					m, err = snaps[a].Clone()
					return err
				}); err != nil {
					return err
				}
				addMachineCounters(c0, armNames[a], m)
				if err := span("exploits", "exploits.run_cve", func() error {
					_, err := exploits.RunCVEOn(m, cve)
					return err
				}); err != nil {
					return err
				}
				addMachineCounters(c1, armNames[a], m)
				ops++
			}
		}
	}
	pl.setCounterRatios(counterDelta(c0, c1), float64(ops))
	return nil
}
