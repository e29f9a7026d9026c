package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDirName is where everything the harness writes lives, under the
// repo root: the built binaries (bin/, reused across invocations — `go
// build` relinks only what changed) and one scratch directory per
// invocation. The root .gitignore names it.
const buildDirName = ".bench_build"

// repoRoot walks up from the working directory to the checkout root, so
// `bash bench/run.sh` from the root and `go run .` / `go test` from bench/
// agree.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "snaple-serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the snaple checkout (no cmd/snaple-serve above the working directory)")
		}
		dir = parent
	}
}

// buildPrograms compiles the three programs under test into
// <root>/.bench_build/bin and returns that directory.
func buildPrograms(root string) (string, error) {
	bin := filepath.Join(root, buildDirName, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/snaple", "./cmd/snaple-serve", "./cmd/snaple-worker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
}

// procSet owns every subprocess the harness starts, so one deferred
// killAll (and the signal handler) reaps them on every exit path.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

type proc struct {
	name   string
	cmd    *exec.Cmd
	addr   string // from the announce line
	stdin  io.WriteCloser
	lines  *bufio.Reader // stdout after the announce line (child protocol)
	stderr bytes.Buffer
	once   sync.Once
}

// spawn starts bin with args and waits for a stdout line starting with
// announce ("serving ", "listening ", "ready"); the rest of that line is
// the address. A child that exits or stays silent for 60 s is an error.
func (ps *procSet) spawn(bin, announce string, env []string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	// The kernel kills the child if the harness dies without running its
	// deferred cleanup (SIGKILL, panic in another goroutine).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{name: filepath.Base(bin), cmd: cmd}
	cmd.Stderr = &p.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if p.stdin, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()

	p.lines = bufio.NewReader(stdout)
	type first struct {
		line string
		err  error
	}
	got := make(chan first, 1)
	go func() {
		line, err := p.lines.ReadString('\n')
		got <- first{line, err}
	}()
	select {
	case f := <-got:
		line := strings.TrimSpace(f.line)
		if !strings.HasPrefix(line, announce) {
			p.kill()
			return nil, fmt.Errorf("%s: expected %q line, got %q (%v)\n%s", p.name, announce, line, f.err, p.stderr.String())
		}
		p.addr = strings.TrimSpace(strings.TrimPrefix(line, announce))
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s: no %q line within 60s\n%s", p.name, announce, p.stderr.String())
	}
	return p, nil
}

// kill stops the process and waits until it has ended. Idempotent.
func (p *proc) kill() {
	p.once.Do(func() {
		_ = p.cmd.Process.Kill() // already-exited is fine
		_ = p.cmd.Wait()         // the kill is the expected exit status
	})
}

func (ps *procSet) killAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MB. Call it
// before kill.
func (p *proc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(client *http.Client, addr string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz %s: %w", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}
