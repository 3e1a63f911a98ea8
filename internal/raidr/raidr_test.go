package raidr

import "testing"

func TestPlanInvariants(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"valid two-bin", Plan{BinOf: []int{0, 1, 1}, Bins: []Bin{{1}, {4}}}, true},
		{"valid single-bin", Plan{BinOf: []int{0, 0}, Bins: []Bin{{1}}}, true},
		{"no bins", Plan{BinOf: []int{0}, Bins: nil}, false},
		{"bin 0 not nominal", Plan{BinOf: []int{0}, Bins: []Bin{{2}, {4}}}, false},
		{"zero multiple", Plan{BinOf: []int{0, 1}, Bins: []Bin{{1}, {0}}}, false},
		{"negative multiple", Plan{BinOf: []int{0, 1}, Bins: []Bin{{1}, {-3}}}, false},
		{"bin index out of range", Plan{BinOf: []int{0, 2}, Bins: []Bin{{1}, {4}}}, false},
		{"negative bin index", Plan{BinOf: []int{-1}, Bins: []Bin{{1}}}, false},
	}
	for _, c := range cases {
		err := c.plan.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid plan passed validation", c.name)
		}
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestConstructorsRejectInvalid(t *testing.T) {
	mustPanic(t, "NewPlan rows=0", func() { NewPlan(0, nil, 4) })
	mustPanic(t, "NewPlan multiple=0", func() { NewPlan(16, nil, 0) })
	mustPanic(t, "NewPlan multiple<0", func() { NewPlan(16, nil, -2) })
}

func TestPlanSavings(t *testing.T) {
	weak := map[int]bool{3: true, 7: true}
	p := NewPlan(100, weak, 8)
	// 2 rows at rate 1, 98 rows at rate 1/8.
	planned, baseline := p.RefreshOpsPerWindow()
	if baseline != 100 {
		t.Fatalf("baseline = %v", baseline)
	}
	want := 2 + 98.0/8
	if planned != want {
		t.Fatalf("planned = %v, want %v", planned, want)
	}
	if s := p.SavedFraction(); s < 0.85 || s > 0.86 {
		t.Fatalf("saved = %v", s)
	}
}
