package main

// sizes holds every constant that sizes a workload. The report carries the
// full set, so a number can always be traced to the work it timed. Only
// repetition counts (replicates, warm repeats, waves, epochs) were shrunk to
// fit the benchmark's time cap; input shapes (n, d, rates, fleet size) are
// the ones the workloads were specified with.
type sizes struct {
	// Toy marks the smoke-test sizes, which also serve a traced run for the
	// workloads other than the one it was asked for.
	Toy bool `json:"toy"`
	// SetupReps is how many times a run sets up; setup_s is their median.
	SetupReps int `json:"setup_reps"`

	// paper_fig10: the replication criterion of the timed Figure10 pass
	// (the paper's is 30..2000 runs at 1%; 2% does a quarter of the
	// replicates over the same 72 points), the fixed replicates per point
	// of a warm-up pass, and the replicates per (n, d) of the traced replay.
	FigMinRuns    int     `json:"fig_min_runs"`
	FigMaxRuns    int     `json:"fig_max_runs"`
	FigRelTol     float64 `json:"fig_rel_tol"`
	FigWarmRuns   int     `json:"fig_warm_runs"`
	FigReplayReps int     `json:"fig_replay_reps"`

	// scale_200k: network size and degree, warm broadcasts after the cold
	// one, and the stride at which per-node probes sample the nodes.
	ScaleN      int `json:"scale_n"`
	ScaleDegree int `json:"scale_degree"`
	ScaleWarm   int `json:"scale_warm"`
	ScaleStride int `json:"scale_probe_stride"`

	// load_knee: offered loads, replicates per rate of one timed sweep, of
	// a warm-up sweep, and of the traced replay.
	LoadRates      []float64 `json:"load_rates"`
	LoadReps       int       `json:"load_reps"`
	LoadWarmReps   int       `json:"load_warm_reps"`
	LoadReplayReps int       `json:"load_replay_reps"`

	// grid_tables: network sizes of the spec (nil = the drivers' 20..100),
	// warm runs per cold run, and the synthetic points of the cache probes.
	GridSizes  []int `json:"grid_sizes"`
	GridWarm   int   `json:"grid_warm"`
	GridProbeN int   `json:"grid_probe_points"`

	// live fleets: nodes, average degree, waves per epoch (one epoch = one
	// fresh fleet), minimum epochs, and the per-wave confirmation deadline.
	FleetNodes     int     `json:"fleet_nodes"`
	FleetDegree    float64 `json:"fleet_degree"`
	FleetWaves     int     `json:"fleet_waves"`
	FleetEpochs    int     `json:"fleet_epochs"`
	WaveDeadlineMS int     `json:"wave_deadline_ms"`

	// ProbeIters scales the iteration counts of the standalone probes.
	ProbeIters int `json:"probe_iters"`
}

// full are the sizes the benchmark measures at.
var full = sizes{
	SetupReps: 3,

	FigMinRuns: 30, FigMaxRuns: 2000, FigRelTol: 0.02,
	FigWarmRuns: 30, FigReplayReps: 30,

	ScaleN: 200000, ScaleDegree: 18, ScaleWarm: 2, ScaleStride: 10,

	LoadRates: []float64{0.05, 0.1, 0.2, 0.4},
	LoadReps:  10, LoadWarmReps: 3, LoadReplayReps: 10,

	GridWarm: 3, GridProbeN: 648,

	FleetNodes: 12, FleetDegree: 4, FleetWaves: 100, FleetEpochs: 5, WaveDeadlineMS: 2000,

	ProbeIters: 2000,
}

// toy are the smoke-test sizes: every code path, seconds in total.
var toy = sizes{
	Toy:       true,
	SetupReps: 1,

	FigMinRuns: 3, FigMaxRuns: 3, FigRelTol: 1e-9,
	FigWarmRuns: 1, FigReplayReps: 3,

	ScaleN: 2000, ScaleDegree: 18, ScaleWarm: 2, ScaleStride: 1,

	LoadRates: []float64{0.05, 0.1, 0.2, 0.4},
	LoadReps:  3, LoadWarmReps: 1, LoadReplayReps: 1,

	GridSizes: []int{20, 30}, GridWarm: 2, GridProbeN: 32,

	FleetNodes: 12, FleetDegree: 4, FleetWaves: 20, FleetEpochs: 1, WaveDeadlineMS: 2000,

	ProbeIters: 100,
}
