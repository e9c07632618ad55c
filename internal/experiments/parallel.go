package experiments

import (
	"fmt"
	"runtime"
	"sync"
)

// runParallel executes n independent jobs over a bounded worker pool and
// returns the first error. The pool fails fast: after any job errors, no
// further jobs start (in-flight jobs finish). Simulation cells share only
// read-only inputs (request streams, placements), so cells parallelize
// safely; workers default to just over half the CPUs (GOMAXPROCS/2 + 1) to
// bound the memory of concurrent MWIS graphs.
func runParallel(n, workers int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)/2 + 1
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return fmt.Errorf("experiments: job %d: %w", i, err)
			}
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	jobs := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case i, ok := <-jobs:
					if !ok {
						return
					}
					if err := job(i); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("experiments: job %d: %w", i, err)
							close(done)
						}
						mu.Unlock()
					}
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-done:
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return firstErr
}
