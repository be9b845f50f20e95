package vpindex_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkModuleBuilds keeps the canonical benchmark inside tier-1.
// benchmark/ is a module of its own (BENCHMARK.json's contract), so
// `go build ./... && go test ./...` at the root never compiles it, and a
// refactor that renames one of the Store or internal/ names it imports would
// otherwise pass here and fail only when the benchmark is run. Vet type-checks
// the benchmark's tests too; the build is what benchmark/run.sh does.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	env := append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GOPROXY=off")
	for _, args := range [][]string{
		{"vet", "."},
		{"build", "-o", filepath.Join(t.TempDir(), "vpbenchmark"), "."},
	} {
		cmd := exec.Command(goTool, args...)
		cmd.Dir = "benchmark"
		cmd.Env = env
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in ./benchmark: %v\n%s", args, err, out)
		}
	}
}
