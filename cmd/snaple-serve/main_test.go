package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRunErrors pins the startup validation: every bad flag combination
// must fail before the server binds (the happy path is covered over real
// HTTP by internal/serve's tests and scripts/serve_smoke.sh).
func TestRunErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(file, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := []string{
		"-in", file, "-listen", "127.0.0.1:0",
		"-score", "linearSum", "-alpha", "0.9", "-kmax", "5", "-klocal", "4", "-thr", "10",
		"-policy", "max", "-seed", "1", "-engine", "local",
	}
	manifest := filepath.Join(t.TempDir(), "g.sgr.manifest")
	for _, tc := range []struct {
		name string
		args []string
		want string // a substring of the error, when the reason matters
	}{
		{"missing in", []string{"-in", ""}, ""},
		{"absent file", []string{"-in", filepath.Join(t.TempDir(), "nope.txt")}, ""},
		{"bad score", []string{"-score", "nope"}, ""},
		{"bad policy", []string{"-policy", "nope"}, ""},
		{"bad engine", []string{"-engine", "nope"}, ""},
		{"bad kmax", []string{"-kmax", "-1"}, ""},
		{"unbindable listen", []string{"-listen", "256.0.0.1:99999"}, ""},
		// The manifest does not exist: both combinations must be refused
		// before it is read.
		{"mutable manifest", []string{"-mutable", "-manifest", manifest}, "-mutable is incompatible with -manifest"},
		{"manifest on sim", []string{"-manifest", manifest, "-engine", "sim"}, "manifest requires engine dist"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append(slices.Clip(base), tc.args...))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
