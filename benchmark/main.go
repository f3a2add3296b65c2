// Command benchmark is the repo's yardstick: it boots the real stack — four
// runtime replicas over loopback TCP, real ed25519, real proof-of-work —
// drives one of four closed-loop workloads against it, checks that what was
// committed is correct, and prints the end-to-end metrics a user of the
// system would feel. A separate traced run (-trace 1) produces the per-layer
// numbers by timing calls into each layer from this package's own files.
// README.md in this directory has the tables; BENCHMARK.json at the repo
// root is the machine-readable contract.
//
//	go run ./benchmark                                   # all four workloads
//	go run ./benchmark -workload sat-small -seed 7       # one run, JSON result on the last line
//	go run ./benchmark -workload sat-small -trace 1      # per-layer metrics + span file
//	go run ./benchmark -runs 10 -out a.json              # a set of runs for -compare
//	go run ./benchmark -compare a.json b.json            # verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeconds is the measured window when -seconds is not given; it is
// BENCHMARK.json's run_seconds.
const defaultSeconds = 40

// defaultSetups is how many times an untraced run boots the cluster to take
// the set-up time, read like every timing at the best decile: a boot takes
// 10-40 ms, and whatever else the host does in those milliseconds (the
// previous cluster's teardown included) moves a run's median boot by half.
// Not more boots than this: each leaves a connection per client and replica
// pair in TIME_WAIT for a minute, and tens of thousands of those slow every
// later connect on the host.
const defaultSetups = 25

// What the watchdog allows, beyond warm-up, window and drain, for the boots
// before a run and the layer replay after a traced one (about 2 s and 7 s on
// the reference machine).
const (
	bootsAllowance  = 10 * time.Second
	replayAllowance = 25 * time.Second
)

// measurement is one reported number.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them, each in its own process)")
		seed    = flag.Int64("seed", 1, "seed for keys, timeouts and payload bytes")
		seconds = flag.Int("seconds", defaultSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		runs    = flag.Int("runs", 1, "runs per workload when running all workloads, seeds seed, seed+1, …")
		out     = flag.String("out", "", "when running all workloads: write every run's metrics to this file for -compare")
		spans   = flag.String("spans", ".bench_build/spans.jsonl", "traced run: where the layer replay's spans are written")
		compare = flag.Bool("compare", false, "compare two -out files: benchmark -compare parent.json change.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf(2, "usage: benchmark -compare parent.json change.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *trace, *runs, *out))
	}

	w, ok := findWorkload(*name)
	if !ok {
		fatalf(2, "unknown workload %q (have %s)", *name, workloadNames())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf(2, "-seconds must be at least 1 and -trace 0 or 1")
	}
	os.Exit(runOne(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans))
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// preflight prints what the numbers depend on besides the code.
func preflight(w workload, seed int64, window time.Duration, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("benchmark: workload=%s seed=%d window=%v traced=%v nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		w.name, seed, window, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("benchmark: N=%d clients=%d (closed loop) payload=%dB hop=%v crashes=%d beta=%d W=%d checkpoint=%d\n",
		clusterN, w.clients, w.payload, w.hop, w.crashes, batchSize, pipelineDepth, checkpointInterval)
}

// runOne runs one workload once and prints the result object; the exit code
// is 0 only for a correct run.
func runOne(w workload, seed int64, window time.Duration, traced bool, spanPath string) int {
	preflight(w, seed, window, traced)

	// A run that wedges must not hang its caller: at twice the planned
	// length it is reported as failed, never scored on a partial window.
	planned := bootsAllowance + warmup + window + drainLimit + replayAllowance
	watchdog := time.AfterFunc(2*planned, func() {
		fatalf(3, "workload %s overran %v (2x its planned length): failed, no score", w.name, 2*planned)
	})
	defer watchdog.Stop()

	var (
		res  result
		live *liveRun
		err  error
	)
	if traced {
		res, live, err = runTraced(w, seed, window, spanPath)
	} else {
		live, err = runLive(w, seed, window, defaultSetups, false)
		if err == nil {
			res, err = untracedResult(live)
		}
	}
	if err != nil {
		fatalf(1, "%v", err)
	}
	for _, p := range live.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.name, p)
	}
	res.Correct = len(live.problems) == 0
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf(1, "encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// untracedResult scores an untraced run: the six end-to-end metrics.
func untracedResult(run *liveRun) (result, error) {
	e := run.endToEnd()
	var setups []float64
	for _, s := range run.setups {
		setups = append(setups, s.Seconds())
	}
	if e.slices == 0 {
		return result{}, fmt.Errorf("no %v slice of the window held %d served requests: nothing to read latency from", sliceWidth, minSliceSamples)
	}
	fmt.Printf("benchmark: latency samples=%d slow(>=%v)=%d slices read=%d of %d; whole window: tps=%.0f p99=%.3fms highest supported percentile p%.3f=%.3fms; slice tps p10..p90 spread=%.1f%%\n",
		e.samples, clientTimeout, e.slow, e.slices, int((run.window.to-run.window.from)/sliceWidth), ratio(run.committed, (run.window.to-run.window.from).Seconds()), e.windowP99, e.pmaxPct, e.pmax, e.tpsNoise)
	res := result{Attempted: e.attempted, Failed: e.failed}
	var err error
	res.Metrics, err = withUnits(map[string]float64{
		"tps":       e.tps,
		"p50_ms":    e.p50,
		"p99_ms":    e.p99,
		"ok_share":  e.okShare,
		"outage_ms": e.outage,
		"setup_s":   bestDelay(setups),
	}, endToEndMetrics)
	return res, err
}

// withUnits attaches each declared metric's unit to its value; a declared
// metric without a value is an error, so a run can never print a partial
// set.
func withUnits(values map[string]float64, defs []metricDef) (map[string]measurement, error) {
	out := make(map[string]measurement, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("run produced no %s", d.name)
		}
		out[d.name] = measurement{v, d.unit}
	}
	return out, nil
}

// printMetrics prints every metric by name with its unit, sorted.
func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  %-34s %14d\n  %-34s %14d\n", "attempted", res.Attempted, "failed", res.Failed)
}

// runAll runs every workload `runs` times, each run in a process of its own
// under a hard deadline (so a wedged workload is reported as failed and the
// others still run), and prints the medians.
func runAll(seed int64, seconds, trace, runs int, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf(1, "locate own binary: %v", err)
	}
	set := runSet{Runs: map[string]map[string][]float64{}}
	units := map[string]string{}
	exit := 0
	for _, w := range workloads {
		set.Runs[w.name] = map[string][]float64{}
		for i := 0; i < runs; i++ {
			res, err := runChild(self, w, seed+int64(i), seconds, trace)
			if err != nil {
				// Scored as a total failure, never as a partial number.
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v\n", w.name, i+1, err)
				set.Runs[w.name]["ok_share"] = append(set.Runs[w.name]["ok_share"], 0)
				exit = 1
				continue
			}
			for n, m := range res.Metrics {
				set.Runs[w.name][n] = append(set.Runs[w.name][n], m.Value)
				units[n] = m.Unit
			}
		}
	}
	fmt.Printf("\n%-14s %-34s %14s %-8s %s\n", "workload", "metric", "median", "unit", "IQR/median over runs")
	for _, w := range workloads {
		names := make([]string, 0, len(set.Runs[w.name]))
		for n := range set.Runs[w.name] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			vals := set.Runs[w.name][n]
			spread := "n/a"
			if s, ok := quartileSpread(vals); ok {
				spread = fmt.Sprintf("%.4f", s)
			}
			fmt.Printf("%-14s %-34s %14.4f %-8s %s (n=%d)\n", w.name, n, median(vals), units[n], spread, len(vals))
		}
	}
	if outPath != "" {
		if err := set.write(outPath); err != nil {
			fatalf(1, "%v", err)
		}
	}
	return exit
}

// runChild executes one run in a child process, forwards its report, and
// parses the result object from its last line of output.
func runChild(self string, w workload, seed int64, seconds, trace int) (result, error) {
	cmd := exec.Command(self,
		"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output() // the child's own watchdog bounds its run time
	fmt.Print(string(outBytes))
	if err != nil {
		return result{}, fmt.Errorf("run failed: %w", err)
	}
	return parseResult(outBytes)
}
