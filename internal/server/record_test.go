package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	floorplanner "repro"
	"repro/internal/flight"
)

// TestSolveRecordsIntoServerRingOnly: a cache miss runs the engine once
// under the server's guard and lands exactly one record in the server's
// ring, none in the library's process-wide ring.
func TestSolveRecordsIntoServerRingOnly(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	before, libBefore := s.FlightRecorder().Total(), flight.Default().Total()
	code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: testProblem(t, 0), Engine: "exact"})
	if code != http.StatusOK || resp.Status != "ok" || resp.Cached {
		t.Fatalf("HTTP %d status %q cached %v, want an uncached ok", code, resp.Status, resp.Cached)
	}
	if n := s.FlightRecorder().Total() - before; n != 1 {
		t.Errorf("server ring gained %d records, want 1", n)
	}
	if n := flight.Default().Total() - libBefore; n != 0 {
		t.Errorf("library ring gained %d records, want 0", n)
	}
}

// TestSolveRecordParity: the same problem solved through the library
// facade and through /v1/solve is described by matching records.
func TestSolveRecordParity(t *testing.T) {
	for _, engine := range []string{"exact", "fallback"} {
		t.Run(engine, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			p := testProblem(t, 1)
			if _, err := floorplanner.Solve(context.Background(), p, floorplanner.Options{
				Engine: engine, TimeLimit: 30 * time.Second,
			}); err != nil {
				t.Fatal(err)
			}
			lib := floorplanner.RecentSolves(1)[0]
			if code, resp := postSolve(t, ts.Client(), ts.URL, SolveRequest{Problem: p, Engine: engine}); code != http.StatusOK {
				t.Fatalf("HTTP %d: %+v", code, resp)
			}
			srv := s.FlightRecorder().Last(1)[0]
			if lib.RequestDigest != srv.RequestDigest || lib.Engine != srv.Engine || lib.Outcome != srv.Outcome {
				t.Errorf("library record %s/%s/%s, server record %s/%s/%s",
					lib.RequestDigest, lib.Engine, lib.Outcome, srv.RequestDigest, srv.Engine, srv.Outcome)
			}
			if lib.Objective == nil || srv.Objective == nil || *lib.Objective != *srv.Objective {
				t.Errorf("objectives differ: library %v, server %v", lib.Objective, srv.Objective)
			}
			if len(lib.Stages) != len(srv.Stages) {
				t.Fatalf("stages differ: library %+v, server %+v", lib.Stages, srv.Stages)
			}
			for i := range lib.Stages {
				if lib.Stages[i].Engine != srv.Stages[i].Engine || lib.Stages[i].Outcome != srv.Stages[i].Outcome {
					t.Errorf("stage %d: library %s/%s, server %s/%s", i,
						lib.Stages[i].Engine, lib.Stages[i].Outcome, srv.Stages[i].Engine, srv.Stages[i].Outcome)
				}
			}
			if engine == "fallback" && len(srv.Stages) == 0 {
				t.Error("fallback record has no stages")
			}
		})
	}
}
