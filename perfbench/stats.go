package main

import (
	"net/http"
	"sort"
	"sync"
	"time"
)

// percentile is the nearest-rank q-quantile of xs; it sorts xs in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(q*float64(len(xs))+0.5) - 1
	k = min(max(k, 0), len(xs)-1)
	return xs[k]
}

func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// newClient returns an HTTP client that keeps up to conns connections
// alive, one per closed-loop worker.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// closedLoop runs op on conns workers, each sending its next operation only
// after the previous one completed, until d has passed. op gets the worker
// and a run-wide operation number, and returns the operation's latency. The
// latencies of all workers come back together with the elapsed time.
func closedLoop(conns int, d time.Duration, op func(worker, i int) time.Duration) ([]float64, time.Duration) {
	var (
		mu   sync.Mutex
		lat  []float64
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []float64
			for time.Now().Before(deadline) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				mine = append(mine, ms(op(w, i)))
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return lat, time.Since(start)
}
