package main

import (
	"bufio"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"snaple"
	"snaple/internal/core"
	"snaple/internal/engine"
)

// TestWorkerProcessEndToEnd builds the real binary, spawns two worker
// processes, and checks a dist prediction against the serial oracle —
// the same zero-to-cluster path a user walks, in miniature.
func TestWorkerProcessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and forks real processes")
	}
	bin := filepath.Join(t.TempDir(), "snaple-worker")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	var addrs []string
	for i := 0; i < 2; i++ {
		cmd := exec.Command(bin, "-quiet")
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		sc := bufio.NewScanner(out)
		if !sc.Scan() {
			t.Fatal("worker never announced its address")
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || fields[0] != "listening" {
			t.Fatalf("announcement = %q", sc.Text())
		}
		addrs = append(addrs, fields[1])
	}

	g, err := snaple.Dataset("gowalla", 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	opts := snaple.Options{Score: "linearSum", KLocal: 10, ThrGamma: 50, Seed: 42}

	opts.Engine = "serial"
	want, err := snaple.Predict(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := core.ScoreByName("linearSum", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Score: spec, K: 5, KLocal: 10, ThrGamma: 50, Seed: 42}
	got, st, err := engine.Dist{Addrs: addrs, Seed: 42}.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("worker processes disagree with the serial oracle")
	}
	if st.CrossBytes == 0 {
		t.Errorf("no measured traffic: %+v", st)
	}

	// A second session on the same workers must work: each connection
	// installs its own shipped partition.
	got2, _, err := engine.Dist{Addrs: addrs, Seed: 42}.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got2) {
		t.Fatal("second session on the same workers diverged")
	}
}
