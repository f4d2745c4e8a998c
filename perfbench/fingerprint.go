package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies what a run measured and where. Runs compare
// only when every field but Seed and Commit agrees.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
	Commit     string `json:"commit"`
}

func newFingerprint(workload string, seed uint64, seconds int, traced bool, commit string) fingerprint {
	return fingerprint{
		Workload:   workload,
		Seconds:    seconds,
		Traced:     traced,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Commit:     commit,
	}
}

// comparable returns the fingerprint without the fields runs may differ
// in.
func (f fingerprint) comparable() fingerprint {
	f.Seed, f.Commit = 0, ""
	return f
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// compareRecords loads run records and prints, per commit and metric,
// the median and the quartile spread across runs. Records whose
// fingerprints differ in more than seed and commit are not comparable:
// they are listed and the command fails.
func compareRecords(paths []string, stdout, stderr io.Writer) int {
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "perfbench -compare: name run records (.bench_build/perfbench/*.json)")
		return 2
	}
	var recs []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 1
		}
		recs = append(recs, r)
	}
	base := recs[0].Fingerprint.comparable()
	bad := false
	for i, r := range recs {
		if r.Fingerprint.comparable() != base {
			fmt.Fprintf(stdout, "not comparable: %s has fingerprint %+v, %s has %+v\n",
				paths[0], base, paths[i], r.Fingerprint.comparable())
			bad = true
		}
	}
	if bad {
		return 1
	}
	byCommit := map[string][]record{}
	var commits []string
	for _, r := range recs {
		c := r.Fingerprint.Commit
		if _, ok := byCommit[c]; !ok {
			commits = append(commits, c)
		}
		byCommit[c] = append(byCommit[c], r)
	}
	for _, c := range commits {
		rs := byCommit[c]
		fmt.Fprintf(stdout, "%s commit %s: %d runs\n", base.Workload, c, len(rs))
		var names []string
		for k := range rs[0].Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			var vs []float64
			for _, r := range rs {
				vs = append(vs, r.Metrics[k].Value)
			}
			fmt.Fprintf(stdout, "  %-36s median %-14.6g spread %6.2f%%  %s\n",
				k, median(vs), 100*quartileSpread(vs), rs[0].Metrics[k].Unit)
		}
	}
	return 0
}
