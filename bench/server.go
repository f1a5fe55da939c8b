package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the repo
// root: built binaries and per-run server directories.
const buildDir = ".bench_build"

// binaries are the programs the benchmark drives, built from the
// checkout it runs in so that wiring changes in their main packages are
// measured.
type binaries struct{ server, gen, probes string }

// buildBinaries compiles fleetserver, fleetgen and the layer probes.
// The go tool skips the work when its cache is current.
func buildBinaries(root string) (binaries, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "fleetserver")); err != nil {
		return binaries{}, fmt.Errorf("run from the repository root: %w", err)
	}
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/fleetserver", "./cmd/fleetgen", "./bench/probes")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return binaries{
		server: filepath.Join(bin, "fleetserver"),
		gen:    filepath.Join(bin, "fleetgen"),
		probes: filepath.Join(bin, "probes"),
	}, nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the server binds it; nothing else on the benchmark host
// competes for ports in that gap.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// server is one running fleetserver process.
type server struct {
	cmd     *exec.Cmd
	port    int
	base    string // http://127.0.0.1:port
	started time.Time
	logPath string
	exited  chan struct{}
}

// startServer spawns fleetserver with the given flags on the given
// loopback port, or on a fresh one when port is 0 (a restart reuses its
// predecessor's port). Its log goes to a file in dir; only warnings are
// logged so request logging does not become the thing measured.
func startServer(bin, dir, name string, port int, flags ...string) (*server, error) {
	if port == 0 {
		var err error
		if port, err = freePort(); err != nil {
			return nil, err
		}
	}
	logPath := filepath.Join(dir, name+".log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-log-level", "warn"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	s := &server{cmd: cmd, port: port, base: "http://127.0.0.1:" + strconv.Itoa(port), logPath: logPath, exited: make(chan struct{})}
	s.started = time.Now()
	err = cmd.Start()
	logFile.Close()
	if err != nil {
		return nil, err
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries no information
		close(s.exited)
	}()
	return s, nil
}

// waitReady polls GET /readyz until it answers 200 and returns the time
// since the process was spawned.
func (s *server) waitReady(c *http.Client, timeout time.Duration) (time.Duration, error) {
	deadline := s.started.Add(timeout)
	for {
		select {
		case <-s.exited:
			return 0, fmt.Errorf("fleetserver exited before it was ready; see %s", s.logPath)
		default:
		}
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.started), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("fleetserver not ready after %v; see %s", timeout, s.logPath)
		}
		time.Sleep(3 * time.Millisecond)
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// kill sends SIGKILL and waits until the process is gone.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-s.exited
}

// runTool runs a helper binary to completion and returns its standard
// output.
func runTool(ctx context.Context, bin string, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", filepath.Base(bin), err, stderr.String())
	}
	return out, nil
}
