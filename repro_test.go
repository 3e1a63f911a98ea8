package repro

import "testing"

func TestFacade(t *testing.T) {
	pop := Population(1)
	if len(pop) != 129 {
		t.Fatalf("population = %d", len(pop))
	}
	s := Build(&pop[0], Options{})
	if s.Mem.Controller(0) == nil {
		t.Fatal("Build returned incomplete system")
	}
	if len(Experiments()) != 51 {
		t.Fatalf("experiments = %d", len(Experiments()))
	}
	if _, ok := RunExperiment("E2", 1); !ok {
		t.Fatal("E2 missing")
	}
	if _, ok := RunExperiment("E99", 1); ok {
		t.Fatal("phantom experiment")
	}
}
