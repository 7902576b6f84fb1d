package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// runCells executes n independent experiment cells across a worker pool
// and returns their results in cell order.
//
// A cell is one (profile, sweep-point) unit of an experiment: it builds
// its own sim.Engine — seeded deterministically by its cell definition,
// never shared — drives it, and returns a result that depends only on the
// cell index. Because no state crosses cells, scheduling order cannot
// change any result: a parallel run is byte-identical to a serial one, and
// TestParallelMatchesSerial holds the harness to that.
//
// The pool spans opt.workers() goroutines (GOMAXPROCS by default;
// Workers=1 forces the serial path). Errors are reported deterministically
// too: the error of the lowest-indexed failing cell wins, exactly as a
// serial loop would report it.
func runCells[R any](opt Options, n int, cell func(i int) (R, error)) ([]R, error) {
	results := make([]R, n)
	workers := opt.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			r, err := cell(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// workers resolves the configured cell-pool width: Workers, or GOMAXPROCS
// when it is 0.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}
