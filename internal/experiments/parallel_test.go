package experiments

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunParallelExecutesAllJobs(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{0, 1, 3, 100} {
		workers := workers
		var count atomic.Int64
		seen := make([]atomic.Bool, 50)
		err := runParallel(50, workers, func(i int) error {
			count.Add(1)
			if seen[i].Swap(true) {
				t.Errorf("job %d ran twice", i)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if count.Load() != 50 {
			t.Errorf("workers=%d: ran %d jobs", workers, count.Load())
		}
	}
}

func TestRunParallelPropagatesError(t *testing.T) {
	t.Parallel()
	sentinel := errors.New("boom")
	err := runParallel(20, 4, func(i int) error {
		if i == 13 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want wrapped sentinel", err)
	}
}

func TestRunParallelZeroJobs(t *testing.T) {
	t.Parallel()
	if err := runParallel(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("err = %v", err)
	}
}

// TestRunParallelFailsFast pins the pool's cancellation: once a job errors,
// the feeder stops handing out work, so the long tail of jobs is skipped
// instead of being executed to completion.
func TestRunParallelFailsFast(t *testing.T) {
	t.Parallel()
	sentinel := errors.New("boom")
	var started atomic.Int64
	err := runParallel(100000, 2, func(i int) error {
		started.Add(1)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	// The first error closes the pool; only jobs already in a worker's
	// hands may still run, never anything close to the full input.
	if n := started.Load(); n > 1000 {
		t.Errorf("%d jobs started after a failure, want fail-fast", n)
	}
}

func TestRunParallelSequentialStopsEarly(t *testing.T) {
	t.Parallel()
	ran := 0
	err := runParallel(10, 1, func(i int) error {
		ran++
		if i == 2 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || ran != 3 {
		t.Errorf("sequential path ran %d jobs, err %v; want 3 jobs and an error", ran, err)
	}
}
