package bench

import (
	"errors"
	"strings"
	"testing"
)

// fakeArm returns vals in order, one per call, appending name to *calls
// on each call. A call past the end of vals fails with failErr.
func fakeArm(name string, vals []float64, calls *[]string, failErr error) Arm {
	return Arm{Name: name, Run: func() (float64, error) {
		*calls = append(*calls, name)
		if len(vals) == 0 {
			return 0, failErr
		}
		v := vals[0]
		vals = vals[1:]
		return v, nil
	}}
}

func TestPairedDiscardsWarmupAndAlternates(t *testing.T) {
	var calls []string
	// The first value of each arm is the warm-up and must not count.
	a := fakeArm("a", []float64{1000, 1, 2, 4, 8}, &calls, nil)
	b := fakeArm("b", []float64{-1000, 3, 2, 4, 40}, &calls, nil)
	res, err := Paired(4, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := "a b a b b a a b b a"
	if got := strings.Join(calls, " "); got != want {
		t.Errorf("call order %q, want %q", got, want)
	}
	// Per-round B/A ratios: 3, 1, 1, 5; median (1+3)/2 = 2.
	if res.MedianRatio != 2 {
		t.Errorf("median ratio = %v, want 2", res.MedianRatio)
	}
	checks := []struct {
		name string
		got  Sample
		want Sample
	}{
		{"A", res.A, Summarize([]float64{1, 2, 4, 8})},
		{"B", res.B, Summarize([]float64{3, 2, 4, 40})},
		{"ratio", res.Ratio, Summarize([]float64{3, 1, 1, 5})},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s sample = %+v, want %+v", c.name, c.got, c.want)
		}
	}
	if res.A.N != 4 || res.A.Min != 1 || res.A.Max != 8 || res.A.Mean != 3.75 {
		t.Errorf("A sample %+v still counts the warm-up", res.A)
	}
	if res.Ratio.Mean != 2.5 {
		t.Errorf("ratio mean = %v, want 2.5", res.Ratio.Mean)
	}
}

func TestPairedStopsOnArmError(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name      string
		aVals     []float64
		bVals     []float64
		wantCalls string
		wantArm   string
	}{
		{"a warm-up", nil, []float64{1, 1, 1}, "a", "a warm-up"},
		{"b warm-up", []float64{1, 1, 1}, nil, "a b", "b warm-up"},
		// Round 1 runs b first, so a's failure there follows b's call.
		{"a in round 1", []float64{1, 1}, []float64{1, 1, 1}, "a b a b b a", "a: boom"},
		{"b in round 0", []float64{1, 1, 1}, []float64{1}, "a b a b", "b: boom"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var calls []string
			_, err := Paired(3, fakeArm("a", c.aVals, &calls, boom), fakeArm("b", c.bVals, &calls, boom))
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if !strings.HasPrefix(err.Error(), c.wantArm) {
				t.Errorf("err = %q, want it to start with %q", err, c.wantArm)
			}
			if got := strings.Join(calls, " "); got != c.wantCalls {
				t.Errorf("calls %q, want %q (no call after the error)", got, c.wantCalls)
			}
		})
	}
}
