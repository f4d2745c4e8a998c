package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// phase is the outcome of one closed-loop measurement.
type phase struct {
	latMS     []float64 // client-side wall time of each verified request
	wall      float64   // measured wall time, seconds
	attempted int
	failed    int
	firstErr  error
}

// imagesPerSec is verified images per second of measured wall time.
func (p phase) imagesPerSec() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(len(p.latMS)) / p.wall
}

// latency is the run's q-quantile of client-side wall time, in ms.
func (p phase) latency(q float64) (float64, error) { return percentile(p.latMS, q) }

// Closed-loop sample floors: a phase runs at least its duration and
// until it holds this many verified requests, but never past maxPhase.
// A p90 needs 100 samples for ten to lie beyond it; the end-to-end floor
// doubles that, because a p90 resting on a dozen tail samples moves too
// much between identical runs of the slowest workload, tiled1k-roundtrip,
// which completes only a few images a second. A p50 needs 20.
const (
	samplesForP90 = 200
	samplesForP50 = 30
	maxPhase      = 100 * time.Second
)

// measure drives sys with w.clients() synchronous callers, each sending
// its next request only after the previous one returned and was
// verified. Verification happens outside the timed call.
func measure(ctx context.Context, w workload, sys system, rec *recorder, seed uint64, dur time.Duration, minSamples int64) phase {
	type client struct {
		latMS     []float64
		attempted int
		failed    int
		err       error
	}
	cs := make([]client, w.clients())
	var verified atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &cs[c]
			next := w.picker(seed, c)
			for {
				el := time.Since(start)
				if el >= maxPhase || (el >= dur && verified.Load() >= minSamples) || ctx.Err() != nil {
					return
				}
				lat, err := sys.call(ctx, next(), rec)
				st.attempted++
				if err != nil {
					st.failed++
					if st.err == nil {
						st.err = err
					}
					continue
				}
				st.latMS = append(st.latMS, float64(lat)/1e6)
				verified.Add(1)
			}
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start).Seconds()}
	for _, st := range cs {
		p.latMS = append(p.latMS, st.latMS...)
		p.attempted += st.attempted
		p.failed += st.failed
		if p.firstErr == nil {
			p.firstErr = st.err
		}
	}
	return p
}

// warm sends every distinct input through sys once, in order.
func warm(ctx context.Context, w workload, sys system) phase {
	var p phase
	for i := 0; i < w.distinct(); i++ {
		p.attempted++
		if _, err := sys.call(ctx, i, nil); err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
		}
	}
	return p
}
