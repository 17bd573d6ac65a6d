// Command perfbench is the floorplanner's benchmark. It runs one seeded
// workload against the program in-process, checks every answer, and
// prints its metrics by name and unit; the last line of its output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured without
// tracing. With --trace 1 the run measures twice, untraced and then
// traced, and reports the per-layer metrics derived from the spans it
// recorded around each layer call, plus the tracing overhead on every
// end-to-end metric. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload offline --seed 1 --seconds 30 --trace 0
//
// Workloads: offline (closed loop, in-process Solve), serve (open loop
// over loopback HTTP into server.New(...).Handler()) and online (closed
// loop over Session.Apply). The command exits non-zero when any check
// fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// config is one run's settings. Everything but the first five fields is
// fixed by the benchmark; the self-tests shrink them for a smoke run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for span files and session state

	setups       int     // set-ups per run; setup_s is their median
	library      []base  // bases of the offline exact part
	serveRate    float64 // requests per second (serve)
	streams      []int64 // GenerateWorkload seeds of the streams (online)
	streamEvents int     // events per session stream (online)

	// tamper, when set, alters every solution the program returns before
	// the checks see it; the self-tests use it to prove the checks trip.
	tamper func(p *core.Problem, sol *core.Solution)
}

func defaultConfig() *config {
	return &config{
		setups:       5,
		library:      library(),
		serveRate:    40,
		streams:      onlineStreamSeeds,
		streamEvents: 500,
	}
}

// runner is a set-up workload.
type runner interface {
	// measure runs the workload for the configured time. With a non-nil
	// tracer it also returns the per-layer metrics.
	measure(tr *tracer) values
	close()
}

var workloads = map[string]func(*config, *checker) (runner, error){
	"offline": setupOffline,
	"serve":   setupServe,
	"online":  setupOnline,
}

// report is one run's outcome.
type report struct {
	cfg      *config
	untraced values
	traced   values // nil without --trace
	chk      *checker
	spans    string // where the spans were written
}

func run(cfg *config) (*report, error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	chk := newChecker()
	var r runner
	var setupS []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = setup(cfg, chk); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer r.close()

	rep := &report{cfg: cfg, chk: chk, untraced: r.measure(nil)}
	rep.untraced["setup_s"] = median(setupS)
	if !cfg.trace {
		return rep, nil
	}
	tr := newTracer()
	rep.traced = r.measure(tr)
	self := tr.selfTimes()
	for _, name := range selfTimed {
		rep.traced["self_ms."+name] = mean(self[name])
	}
	for _, m := range endToEnd[1:] {
		rep.traced["overhead."+m.Name] = rep.traced[m.Name] - rep.untraced[m.Name]
	}
	rep.spans = filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(rep.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return rep, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final JSON line: the end-to-end metrics of the
// untraced run, or the per-layer metrics of the traced one.
func (rep *report) result() result {
	defs, vals := endToEnd, rep.untraced
	if rep.traced != nil {
		defs, vals = perLayer, rep.traced
	}
	res := result{
		Correct:   rep.chk.failed == 0 && rep.chk.attempted > 0,
		Attempted: rep.chk.attempted,
		Failed:    rep.chk.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		x := vals[d.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		res.Metrics[d.Name] = metricValue{Value: x, Unit: d.Unit}
	}
	return res
}

// print writes the human-readable report, then the JSON line.
func (rep *report) print(w io.Writer) error {
	cfg := rep.cfg
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(w, "provenance go=%s nproc=%d gomaxprocs=%d commit=%s\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit())
	fmt.Fprintf(w, "checks attempted=%d failed=%d fail_ratio=%g\n", rep.chk.attempted, rep.chk.failed, ratio(float64(rep.chk.failed), float64(rep.chk.attempted)))
	for _, note := range rep.chk.notes {
		fmt.Fprintf(w, "check failed: %s\n", note)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "end-to-end %-22s %14.4f %s\n", d.Name, rep.untraced[d.Name], d.Unit)
	}
	if rep.traced != nil {
		for _, d := range perLayer {
			if !strings.HasPrefix(d.Name, "overhead.") {
				fmt.Fprintf(w, "per-layer  %-32s %14.4f %-6s moves %s on %s\n", d.Name, rep.traced[d.Name], d.Unit, d.Moves, d.Workload)
			}
		}
		for _, d := range endToEnd[1:] {
			fmt.Fprintf(w, "tracing overhead %-22s traced %.4f - untraced %.4f = %.4f %s\n",
				d.Name, rep.traced[d.Name], rep.untraced[d.Name], rep.traced["overhead."+d.Name], d.Unit)
		}
		fmt.Fprintf(w, "spans written to %s\n", rep.spans)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// commit returns the VCS revision the binary was built from, when the
// build saw one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 30, "how long one measurement runs")
	trace := fs.Int("trace", 0, "1 = also run traced and report per-layer metrics")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for spans and session state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.result().Correct {
		fmt.Fprintln(stderr, "perfbench: output checks failed")
		return 1
	}
	return 0
}
