package ksjq_test

import (
	"context"
	"fmt"
	"log"

	"repro/ksjq"
)

// flightLegs builds the two-leg flight workload the examples share: each
// relation is one leg of a DEL→BOM trip, keyed by the hub airport, with
// skyline attributes (flying time, price) — lower preferred on both.
func flightLegs() (leg1, leg2 *ksjq.Relation) {
	leg1 = ksjq.MustNewRelation("leg1", 2, 0, []ksjq.Tuple{
		{Key: "HYD", Attrs: []float64{95, 120}},
		{Key: "HYD", Attrs: []float64{70, 210}},
		{Key: "JAI", Attrs: []float64{60, 80}},
	})
	leg2 = ksjq.MustNewRelation("leg2", 2, 0, []ksjq.Tuple{
		{Key: "HYD", Attrs: []float64{75, 85}},
		{Key: "JAI", Attrs: []float64{75, 90}},
		{Key: "JAI", Attrs: []float64{110, 100}},
	})
	return leg1, leg2
}

// Example evaluates one k-dominant skyline join: itineraries join legs on
// the hub, and K=3 of the 4 joined attributes relaxes full dominance just
// enough that one connection beats every other (at K=4 — classic skyline
// — three of the four itineraries would be incomparable and survive).
func Example() {
	leg1, leg2 := flightLegs()
	q := ksjq.Query{R1: leg1, R2: leg2, K: 3}
	res, err := ksjq.Run(context.Background(), q, ksjq.Options{Algorithm: ksjq.Grouping})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Skyline {
		fmt.Printf("%s ⋈ %s %v\n", leg1.Key(p.Left), leg2.Key(p.Right), p.Attrs)
	}
	// Output:
	// JAI ⋈ JAI [60 80 75 90]
}

// ExampleRun shows the execution options: an explicit algorithm and
// parallel candidate verification. Workers only changes how the engine
// runs — the answer (and its deterministic order) is identical.
func ExampleRun() {
	leg1, leg2 := flightLegs()
	q := ksjq.Query{R1: leg1, R2: leg2, K: 4}
	res, err := ksjq.Run(context.Background(), q, ksjq.Options{
		Algorithm: ksjq.Grouping,
		Workers:   2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d itineraries in the 4-dominant skyline\n", len(res.Skyline))
	fmt.Printf("categorization R1: SS=%d SN=%d NN=%d\n", res.Stats.SS1, res.Stats.SN1, res.Stats.NN1)
	// Output:
	// 3 itineraries in the 4-dominant skyline
	// categorization R1: SS=1 SN=2 NN=0
}

// ExampleFindK solves the paper's Problem 3: the smallest k whose
// k-dominant skyline join holds at least delta tuples — here, the
// strictest dominance level that still leaves two itineraries to offer.
func ExampleFindK() {
	leg1, leg2 := flightLegs()
	q := ksjq.Query{R1: leg1, R2: leg2}
	res, err := ksjq.FindK(context.Background(), q, 2, ksjq.FindKBinary)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("smallest k with at least 2 skyline tuples: k=%d\n", res.K)
	// Output:
	// smallest k with at least 2 skyline tuples: k=4
}

// ExampleNewMaintainer keeps an answer current while tuples arrive:
// inserting a leg that dominates everything displaces the whole previous
// skyline and admits exactly the new tuple's join pairs — no
// recomputation.
func ExampleNewMaintainer() {
	r1 := ksjq.MustNewRelation("r1", 2, 0, []ksjq.Tuple{
		{Key: "h", Attrs: []float64{1, 9}},
		{Key: "h", Attrs: []float64{9, 1}},
	})
	r2 := ksjq.MustNewRelation("r2", 2, 0, []ksjq.Tuple{
		{Key: "h", Attrs: []float64{1, 9}},
		{Key: "h", Attrs: []float64{9, 1}},
	})
	m, err := ksjq.NewMaintainer(ksjq.Query{R1: r1, R2: r2, K: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial skyline: %d tuples\n", m.Len())

	displaced, admitted, err := m.InsertLeft(ksjq.Tuple{Key: "h", Attrs: []float64{0, 0}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("insert displaced %d, admitted %d; skyline now %d tuples\n",
		displaced, admitted, m.Len())
	// Output:
	// initial skyline: 4 tuples
	// insert displaced 4, admitted 2; skyline now 2 tuples
}

// ExampleNewService is the embedded form of the ksjqd server: relations
// are registered once, repeated queries hit the answer cache, and inserts
// promote cached answers to live incremental maintenance instead of
// invalidating them.
func ExampleNewService() {
	svc := ksjq.NewService(ksjq.ServiceConfig{})
	defer svc.Close()

	leg1, leg2 := flightLegs()
	if _, err := svc.Register("leg1", leg1); err != nil {
		log.Fatal(err)
	}
	if _, err := svc.Register("leg2", leg2); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	req := ksjq.QueryRequest{R1: "leg1", R2: "leg2", K: 3}
	for i := 0; i < 2; i++ {
		resp, err := svc.Query(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d tuples (versions %v)\n", resp.Source, len(resp.Skyline), resp.Versions)
	}

	// A new dominant JAI leg: the cached answer is maintained in place.
	if _, err := svc.Insert("leg2", ksjq.Tuple{Key: "JAI", Attrs: []float64{70, 80}}); err != nil {
		log.Fatal(err)
	}
	resp, err := svc.Query(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d tuples (versions %v)\n", resp.Source, len(resp.Skyline), resp.Versions)
	// Output:
	// computed: 1 tuples (versions [1 1])
	// cached: 1 tuples (versions [1 1])
	// maintained: 1 tuples (versions [1 2])
}

// ExamplePrepare builds a query's expensive state once and reuses it:
// repeated runs hit the prepared answer memo, Options.K re-evaluates at
// another dominance level on the same snapshot, and the stream yields
// results one at a time with early termination.
func ExamplePrepare() {
	leg1, leg2 := flightLegs()
	q := ksjq.Query{R1: leg1, R2: leg2, K: 3}
	ctx := context.Background()

	p, err := ksjq.Prepare(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(ctx, ksjq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k=3: %d itinerary\n", len(res.Skyline))

	// Same snapshot, classic skyline (k = all 4 attributes).
	res, err = p.Run(ctx, ksjq.Options{K: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k=4: %d itineraries\n", len(res.Skyline))

	// Range-over-func stream: break stops the engine early.
	for pair, err := range p.Stream(ctx, ksjq.Options{K: 4}) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("first streamed: %s ⋈ %s\n", leg1.Key(pair.Left), leg2.Key(pair.Right))
		break
	}
	// Output:
	// k=3: 1 itinerary
	// k=4: 3 itineraries
	// first streamed: HYD ⋈ HYD
}

// ExampleService_Watch subscribes to a query's answer: the first event is
// the current skyline, then every insert that touches the watched
// relations arrives as an Added/Removed delta — no polling, no
// recomputation.
func ExampleService_Watch() {
	svc := ksjq.NewService(ksjq.ServiceConfig{})
	defer svc.Close()
	leg1, leg2 := flightLegs()
	if _, err := svc.Register("leg1", leg1); err != nil {
		log.Fatal(err)
	}
	if _, err := svc.Register("leg2", leg2); err != nil {
		log.Fatal(err)
	}

	watch, err := svc.Watch(context.Background(), ksjq.QueryRequest{R1: "leg1", R2: "leg2", K: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer watch.Close()
	snapshot := <-watch.Events()
	fmt.Printf("snapshot: %d itineraries\n", len(snapshot.Added))

	// A leg that dominates everything: the old answer is displaced.
	if _, err := svc.Insert("leg2", ksjq.Tuple{Key: "JAI", Attrs: []float64{50, 60}}); err != nil {
		log.Fatal(err)
	}
	delta := <-watch.Events()
	fmt.Printf("delta: +%d -%d (versions %v)\n", len(delta.Added), len(delta.Removed), delta.Versions)
	// Output:
	// snapshot: 1 itineraries
	// delta: +1 -1 (versions [1 2])
}
