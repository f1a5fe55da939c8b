package repro

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesRun builds and runs every program under examples/: each
// must exit 0 and print something. Each takes about a second at most.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	dirs, err := filepath.Glob(filepath.Join("examples", "*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	bin := t.TempDir()
	for _, dir := range dirs {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			if out, err := exec.Command("go", "build", "-o", exe, "./"+dir).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(exe)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			if len(bytes.TrimSpace(stdout.Bytes())) == 0 {
				t.Fatal("printed nothing")
			}
		})
	}
}
