package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/guard"
	"repro/internal/server"
)

// smokeConfig shrinks a workload to a run of a few seconds.
func smokeConfig(t *testing.T, workload string, trace bool) *config {
	t.Helper()
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 3
	cfg.seconds = 300 * time.Millisecond
	cfg.trace = trace
	cfg.out = t.TempDir()
	cfg.setups = 1
	cfg.library = append(paperBases()[:1], synthBases(smallSeeds()[:4])...)
	cfg.serveRate = 20
	cfg.streams = onlineStreamSeeds[:2]
	cfg.streamEvents = 250
	return cfg
}

// TestSmokeEmitsEveryMetric runs each workload traced, which measures
// untraced first: the untraced values are what --trace 0 prints.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, workload := range []string{"offline", "serve", "online"} {
		if raceEnabled && workload == "offline" {
			// Race builds run the engines several times slower, and the
			// MILP engines find no constructive seed within a quarter of
			// the budget. The offline loop is single-goroutine.
			continue
		}
		rep, err := run(smokeConfig(t, workload, true))
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if _, err := os.Stat(rep.spans); err != nil {
			t.Errorf("%s: spans not written: %v", workload, err)
		}
		traced := rep.traced
		for _, want := range [][]metricDef{endToEnd, perLayer} {
			rep.traced = nil
			if len(want) == len(perLayer) {
				rep.traced = traced
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", workload, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s: correct=%v attempted=%d failed=%d; notes %v",
					workload, res.Correct, res.Attempted, res.Failed, rep.chk.notes)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s: %d metrics, want %d", workload, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", workload, d.Name, got, d.Unit)
				}
				if len(want) == len(endToEnd) && got.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, want > 0", workload, d.Name, got.Value)
				}
			}
		}
	}
}

// overlap moves every region onto the first one's area.
func overlap(_ *core.Problem, sol *core.Solution) {
	for i := range sol.Regions {
		sol.Regions[i] = sol.Regions[0]
	}
}

func TestInvalidSolutionsFailTheRun(t *testing.T) {
	// The serve set-up already checks the hot set's first answers, so the
	// run fails before it measures.
	cfg := smokeConfig(t, "serve", false)
	cfg.tamper = overlap
	if rep, err := run(cfg); err == nil && rep.result().Correct {
		t.Error("serve: a run of invalid solutions reported correct")
	}

	cfg = smokeConfig(t, "offline", false)
	cfg.tamper = overlap
	o := &offline{cfg: cfg, chk: newChecker()}
	if _, _, _, ok := o.solve(nil, 0, 1, "exact", instance{base: "sdr", p: paperBases()[0].p}, time.Second); ok {
		t.Error("offline: an invalid solution passed")
	}
}

func TestCliRejectsUnknownWorkload(t *testing.T) {
	// An unknown workload never prints a result.
	var out, errOut bytes.Buffer
	if code := cli([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}

func TestChecksTrip(t *testing.T) {
	chk := newChecker()
	if err := chk.checkOptimum("b", 100, true); err != nil {
		t.Fatal(err)
	}
	if err := chk.checkOptimum("b", 90, false); err == nil {
		t.Error("an objective below the proven optimum passed")
	}
	if err := chk.checkOptimum("b", 101, true); err == nil {
		t.Error("a second proven optimum that differs passed")
	}
	if err := chk.checkOptimum("b", 120, false); err != nil {
		t.Errorf("a worse heuristic answer failed: %v", err)
	}

	p := paperBases()[0].p
	sol := &core.Solution{Regions: make([]grid.Rect, len(p.Regions))}
	if err := guard.CheckSolution("test", p, sol); err == nil {
		t.Error("an invalid solution passed the validator")
	}

	obj := 1.0
	resp := &server.SolveResponse{Status: "ok", Solution: sol, Objective: &obj}
	if err := checkServed(p, resp); err == nil {
		t.Error("an invalid served solution passed")
	}
	if err := checkServed(p, &server.SolveResponse{Status: "error", Error: "boom"}); err == nil {
		t.Error("a status error answer passed")
	}
}

func TestServedObjectiveMustMatch(t *testing.T) {
	cfg := smokeConfig(t, "offline", false)
	cfg.setups = 1
	in := instance{base: "sdr", p: paperBases()[0].p}
	o := &offline{cfg: cfg, chk: newChecker()}
	sol, _, _, ok := o.solve(nil, 0, 1, "constructive", in, time.Second)
	if !ok {
		t.Fatalf("constructive failed: %v", o.chk.notes)
	}
	obj := sol.Objective(in.p) * 0.9
	if err := checkServed(in.p, &server.SolveResponse{Status: "ok", Solution: sol, Objective: &obj}); err == nil {
		t.Error("a served objective that differs from the recomputed one passed")
	}
}

func TestRelabelKeepsTheOptimum(t *testing.T) {
	chk := newChecker()
	o := &offline{cfg: defaultConfig(), chk: chk}
	cyc := newCycler(7, append(paperBases()[1:2], synthBases(smallSeeds()[:2])...))
	for i := 0; i < 6; i++ {
		in := cyc.next()
		if _, _, _, ok := o.solve(nil, 0, int64(i), "exact", in, 5*time.Second); !ok {
			t.Fatalf("relabeling %d of %s: %v", i, in.base, chk.notes)
		}
	}
}

// TestRelabelingsAreFreshDesigns checks that every relabeling enumerates
// its candidates afresh, and that two seeds relabel the same problem
// under other names.
func TestRelabelingsAreFreshDesigns(t *testing.T) {
	a, b := newCycler(1, paperBases()[:1]), newCycler(2, paperBases()[:1])
	x, y := a.next(), b.next()
	if x.p.Device == y.p.Device || x.p.Device == paperBases()[0].p.Device {
		t.Error("relabelings share a device object")
	}
	_, misses := core.CandCacheStats()
	core.CachedCandidates(x.p.Device, x.p.Regions[0].Req)
	if _, after := core.CandCacheStats(); after != misses+1 {
		t.Errorf("a relabeling's first candidate lookup: %d misses, want 1", after-misses)
	}
	for i := range x.p.Regions {
		if x.p.Regions[i].Name == y.p.Regions[i].Name || fmt.Sprint(x.p.Regions[i].Req) != fmt.Sprint(y.p.Regions[i].Req) {
			t.Errorf("region %d: seeds give %v and %v, want the same requirements under other names", i, x.p.Regions[i], y.p.Regions[i])
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json in step with
// the metrics the benchmark prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != (metricDef{Name: want[i].Name, Unit: want[i].Unit, Better: want[i].Better, Bound: want[i].Bound}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}
