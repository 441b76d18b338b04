package bench

import (
	"fmt"
	"runtime"
	"time"
)

// Arm is one side of a paired measurement. Each call of Run performs one
// round of work and returns that round's measurement.
type Arm struct {
	Name string
	Run  func() (float64, error)
}

// PairResult summarizes a paired run: each arm's per-round measurements,
// and the per-round B/A ratios with their median.
type PairResult struct {
	A, B        Sample
	Ratio       Sample
	MedianRatio float64
}

// pairRounds is the round count of the op-loop comparisons (Table 5
// micro rows, the seccomp gate): microReps
// repetitions of 20 chunks each, so an arm runs 7×iters ops in total in
// rounds of iters/20.
const pairRounds = 140

// Paired is the one baseline-vs-change measurement method. It calls each
// arm once and discards the result (warm-up), fences the garbage
// collector, then runs the given number of rounds, each calling both arms
// once. The arm that goes first alternates every round, so a disturbance
// in one load window (a GC cycle, a descheduled slice) lands on both arms
// in turn instead of on one arm in every round. The first error from
// either arm stops the run and is returned with that arm's name.
func Paired(rounds int, a, b Arm) (PairResult, error) {
	arms := [2]Arm{a, b}
	for _, arm := range arms {
		if _, err := arm.Run(); err != nil {
			return PairResult{}, fmt.Errorf("%s warm-up: %w", arm.Name, err)
		}
	}
	runtime.GC()
	vals := [2][]float64{make([]float64, 0, rounds), make([]float64, 0, rounds)}
	ratios := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		for k := 0; k < 2; k++ {
			i := (r + k) % 2
			v, err := arms[i].Run()
			if err != nil {
				return PairResult{}, fmt.Errorf("%s: %w", arms[i].Name, err)
			}
			vals[i] = append(vals[i], v)
		}
		ratios = append(ratios, vals[1][r]/vals[0][r])
	}
	return PairResult{
		A:           Summarize(vals[0]),
		B:           Summarize(vals[1]),
		Ratio:       Summarize(ratios),
		MedianRatio: Median(ratios),
	}, nil
}

// nsPerOp returns a Run function that times run(n) and reports the mean
// ns per op.
func nsPerOp(n int, run func(n int) error) func() (float64, error) {
	return func() (float64, error) {
		start := time.Now()
		if err := run(n); err != nil {
			return 0, err
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n), nil
	}
}
