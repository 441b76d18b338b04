package world

import (
	"sync"
	"testing"

	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/vfs"
)

// TestConcurrentKernelStress is the -race concurrency stress test: N
// worker goroutines each run a session loop of fork/exec/exit (a real
// /bin/ls spawn), deep-path stats, and pid lookups, while a reloader
// goroutine hammers monitord policy resyncs (mounts + delegation) the
// whole time. Afterwards the task table must have lost no tasks and the
// tracer's counters must be internally consistent.
func TestConcurrentKernelStress(t *testing.T) {
	const (
		workers = 8
		iters   = 30
	)
	m, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.FS.MkdirAll(vfs.RootCred, "/stress/deep/path", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.K.FS.WriteFile(vfs.RootCred, "/stress/deep/path/probe", []byte("x\n"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}

	baseline := m.K.TaskCount()

	stop := make(chan struct{})
	var reloads sync.WaitGroup
	reloads.Add(1)
	go func() {
		defer reloads.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Monitor.SyncMounts(); err != nil {
				t.Errorf("SyncMounts: %v", err)
				return
			}
			if err := m.Monitor.SyncDelegation(); err != nil {
				t.Errorf("SyncDelegation: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := m.Session("alice")
			if err != nil {
				t.Errorf("session: %v", err)
				return
			}
			defer m.K.Exit(sess, 0)
			for i := 0; i < iters; i++ {
				// Stats on a shared deep path.
				if _, err := m.K.Stat(sess, "/stress/deep/path/probe"); err != nil {
					t.Errorf("stat: %v", err)
					return
				}
				// fork/exec/exit of a real binary.
				code, _, stderr, err := m.Run(sess, []string{userspace.BinLs, "/"}, nil)
				if err != nil || code != 0 {
					t.Errorf("ls: code=%d err=%v stderr=%q", code, err, stderr)
					return
				}
				// Shard-read lookups against live churn.
				if got := m.K.Task(sess.PID()); got != sess {
					t.Errorf("Task(%d) lost the session task", sess.PID())
					return
				}
				m.K.Tasks()
			}
		}()
	}
	wg.Wait()
	close(stop)
	reloads.Wait()
	if t.Failed() {
		return
	}

	// No lost tasks: every spawned child exited, every session exited.
	if got := m.K.TaskCount(); got != baseline {
		t.Fatalf("task count after stress = %d, want %d (lost or leaked tasks)", got, baseline)
	}

	// Tracer consistency: per-kind emission counts must sum to the ring
	// total, the stat syscall histogram must have seen at least every
	// explicit stat, and the /proc/trace/stats render the counters feed
	// must be readable from inside the simulation.
	st := m.K.Trace.Stats()
	var byKind uint64
	for _, n := range st.ByKind {
		byKind += n
	}
	if byKind != st.Emitted {
		t.Fatalf("per-kind emissions sum to %d, ring emitted %d", byKind, st.Emitted)
	}
	if h := m.K.Trace.Histogram("stat"); h.Count < workers*iters {
		t.Fatalf("stat histogram count = %d, want >= %d", h.Count, workers*iters)
	}
	root, err := m.Session("root")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.K.ReadFile(root, kernel.ProcTraceStats)
	if err != nil {
		t.Fatalf("read %s: %v", kernel.ProcTraceStats, err)
	}
	if len(stats) == 0 {
		t.Fatal("empty /proc/trace/stats after stress")
	}
}
