package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sdr"
)

func TestLoadProblemBuiltins(t *testing.T) {
	for _, design := range []string{"SDR", "sdr2", "SDR3"} {
		p, err := loadProblem("", design)
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", design, err)
		}
	}
	if _, err := loadProblem("", "nope"); err == nil {
		t.Fatal("unknown design accepted")
	}
	if _, err := loadProblem("", ""); err == nil {
		t.Fatal("missing inputs accepted")
	}
	if _, err := loadProblem("x.json", "SDR"); err == nil {
		t.Fatal("conflicting inputs accepted")
	}
}

func TestLoadProblemFromFile(t *testing.T) {
	p := sdr.SDR2()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := loadProblem(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Regions) != 5 || len(back.FCAreas) != 6 {
		t.Fatal("problem lost in round trip")
	}
	if _, err := loadProblem(filepath.Join(t.TempDir(), "missing.json"), ""); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadProblem(bad, ""); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestNoSolutionErrorNamesWhoStopped(t *testing.T) {
	gaveUp := noSolutionError("annealing", 150*time.Millisecond, 10*time.Second).Error()
	if want := "no solution found: engine annealing gave up after 0.15s of a 10s budget"; gaveUp != want {
		t.Errorf("early return: got %q, want %q", gaveUp, want)
	}
	timedOut := noSolutionError("annealing", 10*time.Second+3*time.Millisecond, 10*time.Second).Error()
	if want := "no solution found within 10s (try a larger -time)"; timedOut != want {
		t.Errorf("budget spent: got %q, want %q", timedOut, want)
	}
}
