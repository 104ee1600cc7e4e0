package experiments

import (
	"encoding/json"
	"io"
	"runtime"
)

// Hardware records the real-machine execution context of a report.
// Virtual-time numbers are machine-model functions and ignore it, but
// wall-clock figures are only comparable between runs whose Hardware
// matches — so every BENCH_*.json header carries one.
type Hardware struct {
	// GoVersion is runtime.Version() of the writing binary.
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the Go scheduler's thread cap at report time.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is the machine's logical CPU count.
	NumCPU int `json:"num_cpu"`
	// WorkerShards is the most worker shards a session's run may take: at
	// most this many virtual ranks execute concurrently on real cores.
	// With the default knob a run takes fewer while other runs of the
	// process hold processors (comm.World.EffectiveThreads).
	WorkerShards int `json:"worker_shards"`
}

// DetectHardware snapshots the execution context. threads is the
// configured worker-shard knob; 0 resolves to GOMAXPROCS, the most a
// default-threaded run may take (comm.World.SetThreads).
func DetectHardware(threads int) Hardware {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return Hardware{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		WorkerShards: threads,
	}
}

// BenchReport is the machine-readable record of one experiment run —
// what popbench writes as BENCH_<experiment>.json so a sweep's numbers
// can be diffed or plotted without re-parsing the printed tables.
type BenchReport struct {
	Experiment  string   `json:"experiment"`
	Machine     string   `json:"machine"`
	Quick       bool     `json:"quick"`
	WallSeconds float64  `json:"wall_seconds"`
	Hardware    Hardware `json:"hardware"`

	// Measurements taken while this experiment ran. Empty when the
	// experiment reused a sweep cached by an earlier figure.
	Measurements []ReportMeasurement `json:"measurements"`
}

// ReportMeasurement is Measurement flattened for JSON: the solver
// config as one string, virtual times in seconds.
type ReportMeasurement struct {
	Res        string  `json:"res"`
	Config     string  `json:"config"`
	Cores      int     `json:"cores"`
	BlockNx    int     `json:"block_nx"`
	BlockNy    int     `json:"block_ny"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	SolveTime  float64 `json:"solve_seconds"` // MaxClock of the solve
	CompTime   float64 `json:"comp_seconds"`
	HaloTime   float64 `json:"halo_seconds"`
	ReduceTime float64 `json:"reduce_seconds"`
	SetupTime  float64 `json:"setup_seconds"`
	EigTime    float64 `json:"eig_seconds"`
	EigSteps   int     `json:"eig_steps,omitempty"`
}

// NewBenchReport assembles a report from the measurements an experiment
// contributed (a slice of Config.Recorded()).
func NewBenchReport(c *Config, experiment string, wallSeconds float64, ms []Measurement) *BenchReport {
	r := &BenchReport{
		Experiment:   experiment,
		Machine:      c.Machine.Name,
		Quick:        c.Quick,
		WallSeconds:  wallSeconds,
		Hardware:     DetectHardware(0),
		Measurements: make([]ReportMeasurement, 0, len(ms)),
	}
	for _, m := range ms {
		r.Measurements = append(r.Measurements, ReportMeasurement{
			Res: m.Res, Config: m.Config.String(), Cores: m.Cores,
			BlockNx: m.BlockNx, BlockNy: m.BlockNy,
			Iterations: m.Iterations, Converged: m.Converged,
			SolveTime: m.SolveTime, CompTime: m.CompTime,
			HaloTime: m.HaloTime, ReduceTime: m.ReduceTime,
			SetupTime: m.SetupTime, EigTime: m.EigTime, EigSteps: m.EigSteps,
		})
	}
	return r
}

// WriteJSON writes the report, indented, with a trailing newline.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
