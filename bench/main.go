// Command bench is the repository's benchmark. It runs four workloads —
// the paper's H1K study, a cold→warm revisit study, a study under
// injected network faults, and in-process serving of a Hispar list — and
// reports each one's end-to-end metrics, or with -trace its per-layer
// metrics, after checking that its output is correct.
//
// Run it from the repository root through its build script:
//
//	bash bench/run.sh                                  # all workloads
//	bash bench/run.sh -workload h1k-cold -seed 7
//	bash bench/run.sh -workload h500-faults -trace out.json
//	bash bench/run.sh -compare a.jsonl b.jsonl
//
// Each run prints its metrics to standard error and, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. It exits 1 when an output check fails. See README.md for
// the workloads, metrics and layers.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// minSetups is how many times a run sets up at least, so that setup_s
// is a median.
const minSetups = 3

// digestSeed is the seed the committed output digests were taken at.
const digestSeed = 42

// digestsJSON maps each workload to its output digest at digestSeed.
//
//go:embed digests.json
var digestsJSON []byte

// options is how one workload is run.
type options struct {
	seed int64
	// budget bounds the measured time: timed units repeat while another
	// is expected to fit in it, and at least one always runs.
	budget    time.Duration
	traced    bool
	tracePath string // spans are written here when set
}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload to run (default: all, each in its own process)")
		seed         = flag.Int64("seed", digestSeed, "seed for the generated inputs and the simulated network")
		seconds      = flag.Int("seconds", 0, "measuring budget per workload in seconds (default: run_seconds of ./BENCHMARK.json)")
		traceFlag    = flag.String("trace", "0", "0: report end-to-end metrics; 1: report per-layer metrics; a file name: as 1, and write the spans there as Chrome trace JSON")
		recordPath   = flag.String("record", "", "append each run's result to this JSON-lines file")
		compare      = flag.Bool("compare", false, "compare two -record files against the bounds in ./BENCHMARK.json: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
		os.Exit(2)
	}

	var sp spec
	if *compare || *seconds <= 0 {
		var err error
		if sp, err = readSpec(specPath); err != nil {
			fatal("%v", err)
		}
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare takes two record files")
		}
		ok, err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	opt := options{seed: *seed, budget: time.Duration(*seconds) * time.Second}
	switch *traceFlag {
	case "0":
	case "1":
		opt.traced = true
	case "":
		fatal("-trace takes 0, 1 or a file name")
	default:
		opt.traced, opt.tracePath = true, *traceFlag
	}

	if *workloadFlag == "" {
		os.Exit(runAll(opt, *recordPath))
	}
	w, err := workloadByName(*workloadFlag)
	if err != nil {
		fatal("%v", err)
	}
	os.Exit(runOne(w, opt, *recordPath))
}

// runOne runs one workload in this process and prints its result.
func runOne(w workload, opt options, recordPath string) int {
	var r *report
	if w.serve != nil {
		r = w.serve.runServe(opt)
	} else {
		r = w.runStudy(opt)
	}
	checkDigest(w.name, opt.seed, r)
	rss, err := peakRSSMB()
	if err != nil {
		r.fail("peak RSS: %v", err)
	}
	r.values["runtime.peak_rss_mb"] = rss

	res := r.result(opt.traced)
	r.printSummary(os.Stderr, w.name)
	if recordPath != "" {
		rec := record{Workload: w.name, Seed: opt.seed, Trace: opt.traced, SHA256: r.sha256, Result: res}
		if err := appendRecord(recordPath, rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: record: %v\n", err)
			return 1
		}
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// checkDigest compares the run's output digest with the committed one
// when the run used the digest seed.
func checkDigest(name string, seed int64, r *report) {
	if seed != digestSeed || r.sha256 == "" {
		return
	}
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		r.fail("digests.json: %v", err)
		return
	}
	if want[name] != r.sha256 {
		r.fail("output_sha256 %s, committed digest for seed %d is %q", r.sha256, seed, want[name])
	}
}

// runAll runs every workload, each in a fresh child process so that its
// peak RSS and lazily built state are its own.
func runAll(opt options, recordPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	status := 0
	for _, w := range workloads() {
		tr := "0"
		if opt.tracePath != "" {
			ext := filepath.Ext(opt.tracePath)
			tr = strings.TrimSuffix(opt.tracePath, ext) + "." + w.name + ext
		} else if opt.traced {
			tr = "1"
		}
		args := []string{
			"-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10),
			"-seconds", strconv.Itoa(int(opt.budget / time.Second)), "-trace", tr,
		}
		if recordPath != "" {
			args = append(args, "-record", recordPath)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}
