package world

import (
	"testing"

	"protego/internal/kernel"
	"protego/internal/vfs"
)

func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Build(Options{Mode: kernel.ModeProtego}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClone(b *testing.B) {
	m, err := Build(Options{Mode: kernel.ModeProtego})
	if err != nil {
		b.Fatal(err)
	}
	snap := m.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.Clone(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelClone(b *testing.B) {
	m, err := Build(Options{Mode: kernel.ModeProtego})
	if err != nil {
		b.Fatal(err)
	}
	m.K.FS.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.K.Clone()
	}
}

// BenchmarkFingerprint fingerprints a golden clone after one private
// write, the state difffuzz and equiv observe most: almost the whole tree
// is still shared with the snapshot.
func BenchmarkFingerprint(b *testing.B) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		b.Run(mode.String(), func(b *testing.B) {
			m, err := Build(Options{Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			c, err := m.Snapshot().Clone()
			if err != nil {
				b.Fatal(err)
			}
			if err := c.K.FS.WriteFile(vfs.RootCred, "/home/alice/bench", []byte("x"), 0o644, UIDAlice, GIDUsers); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fingerprintSink = c.Fingerprint()
			}
		})
	}
}

var fingerprintSink string
