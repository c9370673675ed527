// Quickstart: the paper's own flight example (Tables 1-3) end to end.
//
// Two relations of flights — city A to stop-overs, stop-overs to city B —
// are joined on the intermediate city, and the 7-dominant skyline over the
// 8 combined attributes is computed with the grouping algorithm through
// the public ksjq facade. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/ksjq"
)

func main() {
	// Flights from city A: join key is the destination (stop-over) city.
	// Attributes (lower is better): cost, duration, rating, amenities.
	f1 := ksjq.MustNewRelation("flights-from-A", 4, 0, []ksjq.Tuple{
		{Key: "C", Attrs: []float64{448, 3.2, 40, 40}},
		{Key: "C", Attrs: []float64{468, 4.2, 50, 38}},
		{Key: "D", Attrs: []float64{456, 3.8, 60, 34}},
		{Key: "D", Attrs: []float64{460, 4.0, 70, 32}},
		{Key: "E", Attrs: []float64{450, 3.4, 30, 42}},
		{Key: "F", Attrs: []float64{452, 3.6, 20, 36}},
		{Key: "G", Attrs: []float64{472, 4.6, 80, 46}},
		{Key: "H", Attrs: []float64{451, 3.7, 20, 37}},
		{Key: "E", Attrs: []float64{451, 3.7, 40, 37}},
	})
	// Flights to city B: join key is the source city.
	f2 := ksjq.MustNewRelation("flights-to-B", 4, 0, []ksjq.Tuple{
		{Key: "D", Attrs: []float64{348, 2.2, 40, 36}},
		{Key: "D", Attrs: []float64{368, 3.2, 50, 34}},
		{Key: "C", Attrs: []float64{356, 2.8, 60, 30}},
		{Key: "C", Attrs: []float64{360, 3.0, 70, 28}},
		{Key: "E", Attrs: []float64{350, 2.4, 30, 38}},
		{Key: "F", Attrs: []float64{352, 2.6, 20, 32}},
		{Key: "G", Attrs: []float64{372, 3.6, 80, 42}},
		{Key: "H", Attrs: []float64{350, 2.4, 35, 39}},
	})

	// A flight combination must beat another on at least k=7 of the 8
	// attributes to dominate it.
	q := ksjq.Query{R1: f1, R2: f2, Spec: ksjq.Spec{Cond: ksjq.Equality}, K: 7}
	res, err := ksjq.Run(context.Background(), q, ksjq.Options{Algorithm: ksjq.Grouping})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d-dominant skyline of %s ⋈ %s (%d combinations):\n",
		q.K, f1.Name, f2.Name, len(res.Skyline))
	for _, p := range res.Skyline {
		leg1, leg2 := f1.Tuple(p.Left), f2.Tuple(p.Right)
		fmt.Printf("  via %s: leg1 %v + leg2 %v\n", leg1.Key, leg1.Attrs, leg2.Attrs)
	}
	fmt.Printf("categorized R1 as SS/SN/NN = %d/%d/%d in %v total\n",
		res.Stats.SS1, res.Stats.SN1, res.Stats.NN1, res.Stats.Total)

	// Prepared queries amortize the expensive per-pair state (join index,
	// probe orders): build it once, then evaluate at any k — repeating an
	// identical query is answered from the prepared memo.
	prepared, err := ksjq.Prepare(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	for k := q.K; k <= q.Width(); k++ {
		res, err := prepared.Run(context.Background(), ksjq.Options{K: k})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("k=%d → %d combinations survive\n", k, len(res.Skyline))
	}

	// Streams yield results one at a time; on a large join breaking out of
	// the loop stops the engine early instead of computing the rest of the
	// answer. A join this small runs naive, which yields its finished
	// answer in (Left, Right) order.
	fmt.Println("first two results, streamed:")
	n := 0
	for p, err := range prepared.Stream(context.Background(), ksjq.Options{}) {
		if err != nil {
			log.Fatal(err)
		}
		n++
		fmt.Printf("  via %s: %v\n", f1.Tuple(p.Left).Key, p.Attrs)
		if n == 2 {
			break
		}
	}
}
