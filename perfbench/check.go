package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/server"
)

// checker counts the operations a run attempts and the ones that failed:
// the program returned an error, or its answer failed a check. It also
// keeps each base's proven optimum, learned from exact's first proven
// answer on it, so every later answer on a relabeling of the base can be
// held to it.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
	optimum   map[string]float64
}

func newChecker() *checker { return &checker{optimum: map[string]float64{}} }

// maxNotes bounds the failure descriptions a run keeps for its report.
const maxNotes = 8

// op records one attempted operation and, when err is non-nil, its
// failure. It reports whether the operation succeeded.
func (c *checker) op(err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err == nil {
		return true
	}
	c.failed++
	if len(c.notes) < maxNotes {
		c.notes = append(c.notes, err.Error())
	}
	return false
}

// objTol is the relative tolerance of objective comparisons.
const objTol = 1e-9

func sameObjective(a, b float64) bool {
	return math.Abs(a-b) <= objTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkOptimum holds obj, an answer on a relabeling of base, to the
// base's proven optimum: no engine may beat it, and a proven answer must
// equal it (relabeling does not change the optimum). The first proven
// answer on a base sets its optimum.
func (c *checker) checkOptimum(base string, obj float64, proven bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	opt, known := c.optimum[base]
	switch {
	case !known:
		if proven {
			c.optimum[base] = obj
		}
	case proven && !sameObjective(obj, opt):
		return fmt.Errorf("%s: proven objective %.6f differs from the proven optimum %.6f", base, obj, opt)
	case obj < opt && !sameObjective(obj, opt):
		return fmt.Errorf("%s: objective %.6f is below the proven optimum %.6f", base, obj, opt)
	}
	return nil
}

// optimumOf returns the base's proven optimum, if known.
func (c *checker) optimumOf(base string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	opt, ok := c.optimum[base]
	return opt, ok
}

// checkServed checks an HTTP solve answer against the problem the client
// sent: a status "ok" answer must carry a valid solution whose objective,
// recomputed in-process, equals the objective the server reported.
func checkServed(p *core.Problem, resp *server.SolveResponse) error {
	if resp.Status != "ok" {
		return fmt.Errorf("solve answered status %q: %s", resp.Status, resp.Error)
	}
	if resp.Objective == nil {
		return fmt.Errorf("status ok answer has no objective")
	}
	if err := guard.CheckSolution(resp.Engine, p, resp.Solution); err != nil {
		return err
	}
	if got := resp.Solution.Objective(p); !sameObjective(got, *resp.Objective) {
		return fmt.Errorf("served objective %.6f, recomputed %.6f", *resp.Objective, got)
	}
	return nil
}

// excessPct is obj's excess over the optimum in percent.
func excessPct(obj, opt float64) float64 {
	return 100 * (obj - opt) / opt
}
