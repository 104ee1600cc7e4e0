// Command poplint is the repo's static-analysis multichecker: it enforces
// the determinism, hot-path allocation, context-flow and typed-error
// invariants (see internal/analysis and DESIGN.md §10).
//
// It runs two ways:
//
//	poplint ./...                          # standalone: re-execs go vet with itself
//	go vet -vettool=$(which poplint) ./... # as a vet tool (unitchecker protocol)
//
// Standalone mode delegates package loading and type checking to the go
// command (the unitchecker protocol), so the two forms analyze identically
// — and the build stays hermetic: the only dependency is the vendored
// golang.org/x/tools analysis framework.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	poplint "repro/internal/analysis"
)

func main() {
	// go vet invokes the tool first as `poplint -V=full` (version probe),
	// then as `poplint <flags> $WORK/vet.cfg` per package. Everything else
	// is a human invocation: re-exec through go vet so the toolchain does
	// the loading.
	if unitcheckerInvocation(os.Args[1:]) {
		unitchecker.Main(poplint.All()...) // does not return
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "poplint:", err)
		os.Exit(1)
	}
	args := append([]string{"vet", "-vettool=" + exe}, os.Args[1:]...)
	if len(os.Args) == 1 {
		args = append(args, "./...")
	}
	cmd := exec.Command("go", args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintln(os.Stderr, "poplint:", err)
		os.Exit(1)
	}
}

// unitcheckerInvocation reports whether the argument list is one of the
// shapes the go vet driver uses: a flag probe (-V=full, -flags, per-analyzer
// enables) or a *.cfg unit file. Human invocations pass package patterns,
// never flags.
func unitcheckerInvocation(args []string) bool {
	if len(args) > 0 && strings.HasPrefix(args[0], "-") {
		return true
	}
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}
