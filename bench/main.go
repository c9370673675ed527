// Command bench is ksjq-bench, the repository's end-to-end benchmark: four
// service workloads against real ksjqd processes, a per-layer budget from a
// traced run, and an oracle that checks every answer. See README.md.
//
//	go run . -workload adhoc -seed 1 -seconds 26 -trace 0   one contract run
//	go run . -all -seed 1 -out out/a.json                   every workload, untraced and traced
//	go run . -compare out/a.json out/b.json                 deltas against BENCHMARK.json's bounds
//
// (from bench/; bench/run.sh is the same from the repository root, with the
// Go build cache kept inside the checkout.)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/bench/workload"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	all      bool
	runs     int
	out      string
	compare  bool
	ksjqd    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: adhoc, dashboard, ingest or cluster")
	flag.Int64Var(&o.seed, "seed", 1, "seed of everything a client sends")
	flag.Float64Var(&o.seconds, "seconds", 26, "how long the measured phase runs")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics against real processes; 1: per-layer metrics from the traced in-process stack")
	flag.BoolVar(&o.all, "all", false, "run every workload, untraced then traced")
	flag.IntVar(&o.runs, "runs", 1, "with -all: runs per workload and pass; the file holds their medians")
	flag.StringVar(&o.out, "out", "", "with -all: also write every metric to this JSON file")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files (arguments) against BENCHMARK.json's bounds")
	flag.StringVar(&o.ksjqd, "ksjqd", "", "prebuilt ksjqd binary (default: build cmd/ksjqd into .bench_build)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ksjq-bench:", err)
		killAllLive()
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	if err := loadCatalogue(root); err != nil {
		return err
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two -out files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if !o.all && o.workload == "" {
		return fmt.Errorf("give -workload <name>, -all or -compare (workloads: %v)", workload.Names)
	}

	// A signal must not strand server processes.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllLive()
		os.Exit(130)
	}()

	buildDir := filepath.Join(root, ".bench_build")
	ksjqd := o.ksjqd
	if ksjqd == "" {
		if ksjqd, err = buildKsjqd(root, buildDir); err != nil {
			return err
		}
	}
	work, cleanup, err := scratchDir(buildDir)
	if err != nil {
		return err
	}
	defer cleanup()
	defer killAllLive()

	cfg := runConfig{
		seed: o.seed, seconds: o.seconds, sizes: workload.Full, bin: ksjqd,
		setups: 3, restarts: 11, oracleBudget: 1500 * time.Millisecond,
		checkpoint: 2 * time.Second,
	}

	if !o.all {
		cfg.workload, cfg.workDir = o.workload, work
		res, defs, err := runOne(cfg, o.trace != 0, root)
		if err != nil {
			return err
		}
		printMetrics(o.workload, defs, res)
		if o.trace == 0 {
			defs = endToEnd // the extras are not part of the contract's result
		}
		// The contract's result: the last line of standard output.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{true, res.Attempted, res.Failed, render(defs, res.Metrics)})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}

	report := allReport{Seed: o.seed, Seconds: o.seconds, Workloads: make(map[string]workloadReport)}
	for _, w := range workload.Names {
		var wr workloadReport
		for _, traced := range []bool{false, true} {
			var results []*runResult
			var defs []metricDef
			for i := 0; i < o.runs; i++ {
				cfg.workload = w
				cfg.workDir = filepath.Join(work, fmt.Sprintf("%s-%v-%d", w, traced, i))
				res, d, err := runOne(cfg, traced, root)
				if err != nil {
					return fmt.Errorf("%s: %w", w, err)
				}
				results, defs = append(results, res), d
				// Scratch space is per run; a set of runs must not pile it up.
				os.RemoveAll(cfg.workDir)
			}
			res := aggregate(results)
			printMetrics(w, defs, res)
			if traced {
				wr.PerLayer = res
			} else {
				wr.EndToEnd = res
			}
		}
		report.Workloads[w] = wr
	}
	if o.out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(o.out, append(data, '\n'), 0o644)
	}
	return nil
}

// runOne performs one untraced or traced run and says which metric list it
// reports.
func runOne(cfg runConfig, traced bool, root string) (*runResult, []metricDef, error) {
	if traced {
		res, err := runTraced(cfg, filepath.Join(root, "bench", "out"))
		return res, perLayer, err
	}
	res, err := runWorkload(cfg)
	return res, untracedDefs(cfg.workload), err
}

// allReport is the -out file: every workload's two runs.
type allReport struct {
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type workloadReport struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

// printMetrics lists every metric by name with its unit.
func printMetrics(name string, defs []metricDef, res *runResult) {
	fmt.Printf("== %s: %d operations, %d failed; oracle checked %d of %d replies at %d of %d states\n",
		name, res.Attempted, res.Failed,
		res.Oracle.CheckedReplies, res.Oracle.Replies, res.Oracle.CheckedStates, res.Oracle.States)
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("%-36s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	sort.Strings(res.Notes)
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
}
