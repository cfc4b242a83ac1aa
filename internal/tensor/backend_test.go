package tensor

import (
	"os"
	"strings"
	"testing"
)

// TestInitBackendUnavailableName pins the fallback for a VRDAG_BACKEND
// value naming a backend this binary does not have (avx512 on any build,
// neon off arm64): selection must not fail, it must pick the most
// capable compiled backend and say so on stderr.
func TestInitBackendUnavailableName(t *testing.T) {
	want := compiledBackends[len(compiledBackends)-1].Name()
	for _, name := range []string{"avx512", "no-such-backend"} {
		t.Run(name, func(t *testing.T) {
			t.Setenv("VRDAG_BACKEND", name)
			got, warning := initBackendCapturingStderr(t)
			if got.Name() != want {
				t.Fatalf("VRDAG_BACKEND=%s selected %q, want fallback %q", name, got.Name(), want)
			}
			if !strings.Contains(warning, name) || !strings.Contains(warning, want) {
				t.Fatalf("warning %q should name the requested %q and the fallback %q", warning, name, want)
			}
		})
	}
	t.Run("purego", func(t *testing.T) {
		t.Setenv("VRDAG_BACKEND", "purego")
		got, warning := initBackendCapturingStderr(t)
		if got.Name() != "purego" || warning != "" {
			t.Fatalf("VRDAG_BACKEND=purego selected %q with warning %q, want purego silently", got.Name(), warning)
		}
	})
}

// initBackendCapturingStderr runs initBackend with os.Stderr redirected
// to a temporary file and returns the selection and what was written.
func initBackendCapturingStderr(t *testing.T) (Backend, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	b := initBackend()
	os.Stderr = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return b, string(out)
}
