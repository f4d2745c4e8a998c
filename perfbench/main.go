// Command perfbench is the repository's benchmark. It drives the real
// program in one process from the outside — the client against
// waveserved/wavegate-equivalent servers over loopback HTTP, and the
// facade, core and the simulated Paragon in process — checks every
// output, and prints its metrics as one JSON object on the last line of
// standard output. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run builds its system; setup_s is the
// median.
const setupReps = 5

// outDir receives each run's record and trace, relative to the working
// directory (the repository root).
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: scene512, tiled1k-roundtrip, hot256-cached or paper512")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	commit := fs.String("commit", "unknown", "commit the sources were built from; run.sh passes git's HEAD, suffixed -dirty when tracked files differ from it")
	compare := fs.Bool("compare", false, "compare the run records named as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareRecords(fs.Args(), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fp := newFingerprint(*name, *seed, *seconds, *trace == 1, *commit)
	rec, err := benchmark(fp, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := rec.save(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(fp) // plain struct, cannot fail
	fmt.Fprintf(stdout, "fingerprint %s\n", line)
	out, _ := json.Marshal(rec.result)
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmark runs one workload: inputs and references first, then set-up
// (timed, repeated), then the untraced measurement, and for a traced run
// the traced measurement and the per-layer replay.
func benchmark(fp fingerprint, dur time.Duration) (*record, error) {
	ctx := context.Background()
	w, err := newWorkload(fp.Workload, fp.Seed)
	if err != nil {
		return nil, err
	}
	attempted, failed := 0, 0
	var firstErr error
	tally := func(p phase) {
		attempted += p.attempted
		failed += p.failed
		if firstErr == nil {
			firstErr = p.firstErr
		}
	}

	var sys system
	setups := make([]float64, setupReps)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		if sys, err = w.start(nil); err != nil {
			return nil, err
		}
		warmed := warm(ctx, w, sys)
		setups[i] = time.Since(t0).Seconds()
		tally(warmed)
		if i < len(setups)-1 {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
	}
	runtime.GC()

	res := result{Metrics: map[string]metric{}}
	if !fp.Traced {
		ph := measure(ctx, w, sys, nil, fp.Seed, dur, samplesForP90)
		tally(ph)
		if err := sys.close(); err != nil {
			return nil, err
		}
		p50, err := ph.latency(0.5)
		if err != nil {
			return nil, err
		}
		p90, err := ph.latency(0.9)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		for k, v := range map[string]metric{
			"images_per_s":      {ph.imagesPerSec(), "1/s"},
			"latency_p50_ms":    {p50, "ms"},
			"latency_p90_ms":    {p90, "ms"},
			"setup_s":           {median(setups), "s"},
			"rss_peak_mb":       {rss, "MB"},
			"verified_fraction": {float64(ph.attempted-ph.failed) / float64(max(ph.attempted, 1)), "ratio"},
		} {
			res.Metrics[k] = v
		}
	} else {
		lr, err := tracedPhases(ctx, w, sys, fp.Seed, dur)
		if err != nil {
			return nil, err
		}
		tally(lr.untraced)
		tally(lr.traced)
		m, err := w.layers(ctx, lr)
		if cerr := lr.tsys.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		m["failed_fraction"] = float64(failed) / float64(max(attempted, 1))
		for _, pl := range perLayerMetrics {
			res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
		}
		if err := writeTrace(fp, lr.spans); err != nil {
			return nil, err
		}
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: first failure: %v\n", fp.Workload, firstErr)
	}
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0 && attempted > 0
	return &record{Fingerprint: fp, result: res}, nil
}

// tracedPhases measures half the time untraced on sys (closing it after)
// with the process and program counters around it, then half on a
// freshly started traced system, which it leaves running for the replay.
func tracedPhases(ctx context.Context, w workload, sys system, seed uint64, dur time.Duration) (*layerRun, error) {
	lr := &layerRun{}
	cnt, counted := sys.(interface{ counters() counters })
	if counted {
		lr.cnt0 = cnt.counters()
	}
	lr.proc0 = snapProc()
	lr.untraced = measure(ctx, w, sys, nil, seed, dur/2, samplesForP50)
	lr.proc1 = snapProc()
	if counted {
		lr.cnt1 = cnt.counters()
	}
	if err := sys.close(); err != nil {
		return nil, err
	}

	lr.rec = newRecorder()
	tsys, err := w.start(lr.rec)
	if err != nil {
		return nil, err
	}
	lr.tsys = tsys
	if p := warm(ctx, w, tsys); p.failed > 0 {
		tsys.close()
		return nil, fmt.Errorf("traced warm pass: %w", p.firstErr)
	}
	runtime.GC()
	lr.traced = measure(ctx, w, tsys, lr.rec, seed, dur/2, samplesForP50)
	lr.spans = lr.rec.snapshot()
	return lr, nil
}

// record is one run's fingerprint and result, kept under outDir so runs
// can be compared later.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	result
}

func (r *record) path(ext string) string {
	trace := 0
	if r.Fingerprint.Traced {
		trace = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d%s", r.Fingerprint.Workload, r.Fingerprint.Seed, trace, ext))
}

func (r *record) save() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.path(".json"), b, 0o644)
}

// writeTrace writes the traced phase's spans as Chrome trace_event JSON.
func writeTrace(fp fingerprint, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	r := &record{Fingerprint: fp}
	f, err := os.Create(r.path(".trace.json"))
	if err != nil {
		return err
	}
	meta := map[string]any{}
	b, _ := json.Marshal(fp) // plain struct, cannot fail
	_ = json.Unmarshal(b, &meta)
	if err := writeChrome(f, "perfbench "+fp.Workload, spans, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
