package obs

import (
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
)

// ServePprof starts the net/http/pprof debug server on addr (e.g.
// ":6060") in a background goroutine; an empty addr is a no-op. The
// server lives for the process — CLI runs exit rather than shut it down.
func ServePprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "obs: pprof server on %s: %v\n", addr, err)
		}
	}()
}

// WriteFile creates path and hands the file to write — the one
// create/write/close sequence behind every trace file the commands leave
// (popsolve and popmodel -trace, popserver -traceout). It returns write's
// error, else Close's.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
