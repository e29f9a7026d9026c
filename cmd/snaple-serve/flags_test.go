package main

import (
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFlagsGolden pins the command line as `snaple-serve -h` prints it:
// every flag's name, value type and default, recorded before the prediction
// and deployment flags came from one binder shared with snaple.
func TestFlagsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	want := []string{
		"-addrs string",
		"-alpha float 0.9",
		"-batch-max int 4096",
		"-cache int 65536",
		"-compact-at int",
		"-compact-out string",
		"-dial-attempts int",
		`-engine string "local"`,
		"-in string",
		"-klocal int 20",
		"-kmax int 20",
		`-listen string ":8080"`,
		"-manifest snaple pack -shards",
		"-mutable",
		`-policy string "max"`,
		"-replicas int",
		"-run-timeout duration",
		`-score string "linearSum"`,
		"-seed uint 42",
		"-spawn int",
		"-step-timeout duration",
		"-symmetric",
		"-thr int 200",
		"-verify",
		"-worker-bin string",
		"-workers int",
	}
	if got := helpFlags(t); !slices.Equal(got, want) {
		t.Errorf("-h lists\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// helpFlags builds the package's command and returns its -h listing, one
// "-name type default" line per flag: the type as -h names it (none for a
// bool), the default as -h prints it (quoted for strings, absent when zero).
func helpFlags(t *testing.T) []string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cmd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	var flags []string
	var head, usage string
	flush := func() {
		if head == "" {
			return
		}
		const mark = " (default "
		if i := strings.LastIndex(usage, mark); i >= 0 && strings.HasSuffix(usage, ")") {
			head += " " + usage[i+len(mark):len(usage)-1]
		}
		flags = append(flags, head)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "  -") {
			flush()
			h, u, _ := strings.Cut(line[2:], "\t")
			head, usage = strings.Join(strings.Fields(h), " "), strings.TrimSpace(u)
		} else if head != "" {
			usage += " " + strings.TrimSpace(line)
		}
	}
	flush()
	return flags
}
