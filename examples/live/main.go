// Live: subscribing to a KSJQ answer while new tuples arrive, and
// streaming results progressively under a deadline — the operational
// modes a deployed skyline-join service needs (cf. the update-heavy
// maintenance work the paper cites, and the progressiveness discussion of
// Sec. 6.1).
//
// A product × shipping-plan feed is registered with an embedded query
// service and watched: the initial answer arrives as a snapshot event,
// then every insert is published as an Added/Removed delta, driven by the
// service's incremental maintainer — no recomputation, no client-side
// re-polling. Finally the same query is prepared once and re-evaluated as
// a range-over-func stream, stopping after the first five results. Run
// with:
//
//	go run ./examples/live
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/ksjq"
)

func randProduct(rng *rand.Rand) ksjq.Tuple {
	quality := rng.Float64() * 100
	price := 120 - quality + 25*rng.Float64()
	return ksjq.Tuple{Attrs: []float64{quality, rng.Float64() * 100, rng.Float64() * 100, price}}
}

func randPlan(rng *rand.Rand) ksjq.Tuple {
	days := 1 + rng.Float64()*13
	fee := 22 - 1.4*days + 4*rng.Float64()
	return ksjq.Tuple{Attrs: []float64{days, rng.Float64() * 10, rng.Float64() * 10, fee}}
}

func main() {
	rng := rand.New(rand.NewSource(99))
	products := make([]ksjq.Tuple, 120)
	for i := range products {
		products[i] = randProduct(rng)
	}
	plans := make([]ksjq.Tuple, 30)
	for i := range plans {
		plans[i] = randPlan(rng)
	}
	r1 := ksjq.MustNewRelation("products", 3, 1, products)
	r2 := ksjq.MustNewRelation("shipping", 3, 1, plans)

	// Watchable answers: register the relations with an embedded service
	// and subscribe to the query. The service owns the relations from here
	// on — every mutation goes through Insert, which feeds the watch.
	svc := ksjq.NewService(ksjq.ServiceConfig{})
	defer svc.Close()
	if _, err := svc.Register("products", r1); err != nil {
		log.Fatal(err)
	}
	if _, err := svc.Register("shipping", r2); err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	watch, err := svc.Watch(ctx, ksjq.QueryRequest{R1: "products", R2: "shipping", K: 6, Join: "cross"})
	if err != nil {
		log.Fatal(err)
	}
	defer watch.Close()

	snapshot := <-watch.Events()
	fmt.Printf("initial skyline: %d combinations (versions %v)\n\n", len(snapshot.Added), snapshot.Versions)

	for step := 0; step < 8; step++ {
		var kind, rel string
		var tup ksjq.Tuple
		if step%2 == 0 {
			kind, rel, tup = "product", "products", randProduct(rng)
		} else {
			kind, rel, tup = "shipping plan", "shipping", randPlan(rng)
		}
		if _, err := svc.Insert(rel, tup); err != nil {
			log.Fatal(err)
		}
		ev := <-watch.Events()
		fmt.Printf("insert %-13s → %2d added, %2d removed (event %d, versions %v)\n",
			kind, len(ev.Added), len(ev.Removed), ev.Seq, ev.Versions)
	}

	// Cross-check the watched answer against a forced recompute.
	fresh, err := svc.Query(ctx, ksjq.QueryRequest{R1: "products", R2: "shipping", K: 6, Join: "cross", NoCache: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfresh recompute agrees: %d combinations\n", len(fresh.Skyline))

	// Progressive evaluation as a range-over-func stream: prepare the query
	// once (the join structures are built a single time), then range over
	// the stream and break after five results — the break reaches the
	// engine as an early stop, skipping the remaining verification. The
	// deadline would likewise abort the run mid-verification — the shape
	// of a production request handler.
	rel1, _, err := svc.Relation("products")
	if err != nil {
		log.Fatal(err)
	}
	rel2, _, err := svc.Relation("shipping")
	if err != nil {
		log.Fatal(err)
	}
	q := ksjq.Query{R1: rel1, R2: rel2, Spec: ksjq.Spec{Cond: ksjq.Cross, Agg: ksjq.Sum}, K: 6}
	prepared, err := ksjq.Prepare(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfirst five results, streamed from the prepared query:")
	count := 0
	for p, err := range prepared.Stream(ctx, ksjq.Options{}) {
		if err != nil {
			log.Fatal(err)
		}
		count++
		fmt.Printf("  #%d quality=%5.1f seller=%5.1f warranty=%5.1f days=%4.1f ins=%4.1f handling=%4.1f total=$%6.2f\n",
			count, p.Attrs[0], p.Attrs[1], p.Attrs[2], p.Attrs[3], p.Attrs[4], p.Attrs[5], p.Attrs[6])
		if count == 5 {
			break
		}
	}
}
