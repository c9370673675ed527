// Command ksjq answers a k-dominant skyline join query over two CSV files.
//
// Each CSV has a header row; the first column is the join key, an optional
// second column (with -band) is the band attribute for non-equality joins,
// and the remaining columns are skyline attributes (lower preferred), local
// attributes first and the -agg trailing attributes aggregated.
//
// Example:
//
//	ksjq -r1 legs1.csv -r2 legs2.csv -l1 3 -l2 3 -agg 2 -k 6 -alg grouping
//
// With -delta the tool solves Problem 3 instead: it reports the smallest k
// whose skyline has at least delta tuples (or, with -atmost, the largest k
// with at most delta tuples). -alg defaults to auto, which lets the engine
// choose the algorithm (naive for a small join or a max/min aggregator,
// dominator otherwise), and the summary line reports the pick; -workers
// parallelizes the grouping and dominator algorithms' verification (it
// conflicts with an explicit -alg naive); -timeout bounds the whole query.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/ksjq"
)

// options collects every CLI flag so the run function is testable.
type options struct {
	r1Path, r2Path string
	l1, l2, agg    int
	aggFn          string
	k              int
	algName        string
	cond           string
	band           bool
	delta          int
	atMost         bool
	findAlg        string
	workers        int
	timeout        time.Duration
	quiet          bool
}

func main() {
	var o options
	flag.StringVar(&o.r1Path, "r1", "", "CSV file for the first relation (required)")
	flag.StringVar(&o.r2Path, "r2", "", "CSV file for the second relation (required)")
	flag.IntVar(&o.l1, "l1", 0, "number of local skyline attributes in r1 (required)")
	flag.IntVar(&o.l2, "l2", 0, "number of local skyline attributes in r2 (required)")
	flag.IntVar(&o.agg, "agg", 0, "number of trailing aggregate attributes in each relation")
	flag.StringVar(&o.aggFn, "aggfn", "sum", "aggregation function: sum, max or min (max/min only with -alg naive or auto)")
	flag.IntVar(&o.k, "k", 0, "k-dominance parameter (required unless -delta is set)")
	flag.StringVar(&o.algName, "alg", "auto", "algorithm: auto (the engine picks; the summary reports it), naive, grouping or dominator")
	flag.StringVar(&o.cond, "join", "eq", "join condition: eq, cross, lt, le, gt, ge (band conditions need -band)")
	flag.BoolVar(&o.band, "band", false, "CSV files carry a band column after the key")
	flag.IntVar(&o.delta, "delta", 0, "find k: smallest k with at least delta skylines (Problem 3)")
	flag.BoolVar(&o.atMost, "atmost", false, "with -delta: largest k with at most delta skylines (Problem 4)")
	flag.StringVar(&o.findAlg, "findalg", "binary", "find-k algorithm: naive, range or binary")
	flag.IntVar(&o.workers, "workers", 0, "verify candidates of the grouping and dominator algorithms with this many workers (<= 1 = serial; conflicts with -alg naive)")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort the query after this duration (e.g. 500ms, 30s; 0 = no deadline)")
	flag.BoolVar(&o.quiet, "quiet", false, "print only the summary, not the skyline tuples")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "ksjq:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, o options) error {
	if o.r1Path == "" || o.r2Path == "" {
		return fmt.Errorf("both -r1 and -r2 are required")
	}
	alg, err := ksjq.ParseAlgorithm(o.algName)
	if err != nil {
		return err
	}
	if o.workers > 1 && o.delta > 0 {
		return fmt.Errorf("-workers cannot be combined with -delta (find-k probes are serial)")
	}
	r1, err := loadRelation(o.r1Path, "r1", o.l1, o.agg, o.band)
	if err != nil {
		return err
	}
	r2, err := loadRelation(o.r2Path, "r2", o.l2, o.agg, o.band)
	if err != nil {
		return err
	}
	spec, err := parseSpec(o.cond, o.aggFn)
	if err != nil {
		return err
	}
	q := ksjq.Query{R1: r1, R2: r2, Spec: spec, K: o.k}

	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	if o.delta > 0 {
		return runFindK(ctx, out, q, o)
	}

	res, err := ksjq.Run(ctx, q, ksjq.Options{Algorithm: alg, Workers: o.workers})
	if errors.Is(err, ksjq.ErrOptionConflict) {
		// A parallel degree beside -alg naive is a contradiction, not a
		// preference: an error rather than a silent override.
		return fmt.Errorf("-workers %d: %w", o.workers, err)
	}
	if err != nil {
		return err
	}
	chosen := armLabel(res, o.workers)
	if alg == ksjq.Auto {
		chosen = "auto→" + chosen
	}

	st := res.Stats
	fmt.Fprintf(out, "algorithm=%s k=%d joined-width=%d skylines=%d\n", chosen, q.K, q.Width(), len(res.Skyline))
	fmt.Fprintf(out, "grouping=%v join=%v dominators=%v remaining=%v total=%v\n",
		st.GroupingTime, st.JoinTime, st.DominatorTime, st.RemainingTime, st.Total)
	fmt.Fprintf(out, "categorization: R1 SS/SN/NN = %d/%d/%d, R2 SS/SN/NN = %d/%d/%d\n",
		st.SS1, st.SN1, st.NN1, st.SS2, st.SN2, st.NN2)
	if !o.quiet {
		for _, p := range res.Skyline {
			fmt.Fprintf(out, "%s ⋈ %s  %v\n", r1.Key(p.Left), r2.Key(p.Right), p.Attrs)
		}
	}
	return nil
}

// armLabel renders the arm that ran the way the summary line reports it:
// the paper's one-letter labels for serial runs, the parallel marker
// whenever verification actually shards (workers > 1 — a single worker
// runs the serial path — on any arm but naive, which has no cells).
func armLabel(res *ksjq.Result, workers int) string {
	if res.Algorithm == ksjq.Naive || workers <= 1 {
		return res.Algorithm.String()
	}
	return fmt.Sprintf("parallel-%s(workers=%d)", res.Algorithm.Token(), workers)
}

func runFindK(ctx context.Context, out io.Writer, q ksjq.Query, o options) error {
	alg, err := ksjq.ParseFindKAlgorithm(o.findAlg)
	if err != nil {
		return err
	}
	var res *ksjq.FindKResult
	if o.atMost {
		res, err = ksjq.FindKAtMost(ctx, q, o.delta, alg)
	} else {
		res, err = ksjq.FindK(ctx, q, o.delta, alg)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "k = %d (probed %v, %d full skyline computations, %v total)\n",
		res.K, res.Stats.Probed, res.Stats.SkylinesComputed, res.Stats.Total)
	return nil
}

func loadRelation(path, name string, local, agg int, band bool) (*ksjq.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ksjq.ReadCSV(f, ksjq.ReadOptions{Name: name, Local: local, Agg: agg, HasBand: band})
}

func parseSpec(cond, aggFn string) (ksjq.Spec, error) {
	var spec ksjq.Spec
	var err error
	if spec.Cond, err = ksjq.ParseCondition(cond); err != nil {
		return spec, err
	}
	if spec.Agg, err = ksjq.ParseAggregator(aggFn); err != nil {
		return spec, err
	}
	return spec, nil
}
