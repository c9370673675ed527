// Command ksjqd serves k-dominant skyline join queries over HTTP: a
// long-lived process that keeps relations (and their join indexes)
// resident, caches answers across requests, and maintains cached skylines
// incrementally when tuples are inserted — see the service architecture
// in DESIGN.md §7.
//
// Start it empty and load relations over the API, or preload at startup:
//
//	ksjqd -addr :8372 -load r1,legs1.csv,3,2 -load r2,legs2.csv,3,2
//
// Endpoints (all JSON):
//
//	POST /v1/relations   register a relation (JSON tuples, or CSV body
//	                     with ?format=csv&name=..&local=..&agg=..&band=1)
//	GET  /v1/relations   list registered relations and versions
//	POST /v1/query       answer one KSJQ query
//	POST /v1/insert      insert one tuple or a batch ("tuples"), maintaining
//	                     cached answers through one group commit
//	POST /v1/delete      delete one row ("id") or a batch ("ids") by current
//	                     row index, maintaining cached answers the same way
//	GET  /v1/stats       service counters
//	GET  /healthz        liveness
//
// Relations registered with a window (the -window flag for preloads, or
// "window_ms" on POST /v1/relations) are sliding windows: rows older than
// the window age out automatically through the same delete path, swept
// every -sweep-interval.
//
// Example query:
//
//	curl -s localhost:8372/v1/query -d '{"r1":"r1","r2":"r2","k":6,"algorithm":"auto"}'
//
// With -data, the service is durable: every acknowledged mutation is
// written to a write-ahead log in the data directory before the client
// sees success, a background checkpointer (-checkpoint-interval) folds
// the log into columnar segment files, and restarting with the same
// directory — cleanly or after a crash — restores relations, contents and
// version numbers intact, with the previous working set's join indexes
// rebuilt eagerly. -load CSVs seed the store on the first boot only;
// later boots recover from the store and skip the files. See DESIGN.md
// §14.
//
// SIGINT/SIGTERM triggers a graceful shutdown: in-flight requests finish
// (bounded by -grace), new ones are refused.
//
// # Gateway mode
//
// With -gateway, ksjqd serves the same wire surface as a scatter-gather
// gateway over a cluster of ordinary ksjqd shard processes instead of a
// local service:
//
//	ksjqd -addr :8471 &          # shard 0
//	ksjqd -addr :8472 &          # shard 1
//	ksjqd -addr :8370 -gateway -shards localhost:8471,localhost:8472
//
// Relations registered through the gateway are partitioned across the
// shards by join key (every join group wholly local); queries run the
// paper's two-round distributed scheme — shard-local skylines, then a
// candidate-verification exchange — and /v1/stats reports the cluster
// breakdown including round-2 message/float traffic. Sliding windows and
// -load preloads are not available in gateway mode. See DESIGN.md §13.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux; served only via -debug-addr
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/shard"
	"repro/ksjq"
)

// loadSpec is one -load flag: name,path,local[,agg[,band]].
type loadSpec struct {
	name, path string
	local, agg int
	band       bool
}

// loadFlags collects repeated -load occurrences.
type loadFlags []loadSpec

func (l *loadFlags) String() string { return fmt.Sprintf("%d relations", len(*l)) }

func (l *loadFlags) Set(s string) error {
	parts := strings.Split(s, ",")
	if len(parts) < 3 || len(parts) > 5 {
		return fmt.Errorf("want name,path,local[,agg[,band]], got %q", s)
	}
	spec := loadSpec{name: parts[0], path: parts[1]}
	var err error
	if spec.local, err = strconv.Atoi(parts[2]); err != nil {
		return fmt.Errorf("local attribute count %q: %v", parts[2], err)
	}
	if len(parts) > 3 {
		if spec.agg, err = strconv.Atoi(parts[3]); err != nil {
			return fmt.Errorf("aggregate attribute count %q: %v", parts[3], err)
		}
	}
	if len(parts) > 4 {
		if parts[4] != "band" {
			return fmt.Errorf("fifth field must be \"band\", got %q", parts[4])
		}
		spec.band = true
	}
	*l = append(*l, spec)
	return nil
}

func main() {
	var (
		addr    = flag.String("addr", ":8372", "listen address")
		workers = flag.Int("workers", 0, "max queries executing at once (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "max queries waiting for a worker slot (0 = 64)")
		cache   = flag.Int("cache", 0, "answer-cache capacity in entries (0 = 256)")
		timeout = flag.Duration("timeout", 0, "default per-request deadline (0 = 30s, negative = none)")
		grace   = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
		debug   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		window  = flag.Duration("window", 0, "sliding window applied to every -load relation (0 = keep rows forever)")
		sweep   = flag.Duration("sweep-interval", 0, "how often windowed relations age out expired rows (0 = 1s, negative = never)")
		data    = flag.String("data", "", "durable data directory: WAL + segment files, warm restart (empty = in-memory only)")
		ckpt    = flag.Duration("checkpoint-interval", 0, "how often the WAL is folded into segment files (0 = 60s, negative = never; needs -data)")
		gateway = flag.Bool("gateway", false, "serve as a scatter-gather gateway over -shards instead of a local service")
		shards  = flag.String("shards", "", "comma-separated shard addresses (gateway mode)")
		loads   loadFlags
	)
	flag.Var(&loads, "load", "preload a relation: name,path,local[,agg[,band]] (repeatable)")
	flag.Parse()

	// The wire-facing deadline bound mirrors the service's resolution of
	// -timeout: 0 means the shared default, negative means the operator
	// explicitly allows unbounded requests.
	maxTimeout := *timeout
	if maxTimeout == 0 {
		maxTimeout = ksjq.DefaultRequestTimeout
	} else if maxTimeout < 0 {
		maxTimeout = 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The two modes differ only in what stands behind the wire surface;
	// one loop serves, drains and closes either.
	var b backend
	if *gateway {
		b = openGateway(ctx, *shards, *timeout, maxTimeout)
	} else {
		b = openService(ksjq.ServiceConfig{
			MaxConcurrent:      *workers,
			MaxQueue:           *queue,
			CacheEntries:       *cache,
			DefaultTimeout:     *timeout,
			SweepInterval:      *sweep,
			CheckpointInterval: *ckpt,
		}, *data, loads, *window, maxTimeout)
	}
	srv := &http.Server{Addr: *addr, Handler: b.handler}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("ksjqd listening on %s (%s)", *addr, b.banner)

	// The API mux is ours, so the pprof handlers net/http/pprof hangs on
	// the default mux stay unreachable unless the operator opts in with a
	// separate (typically loopback) debug listener.
	if *debug != "" {
		go func() {
			log.Printf("ksjqd debug (pprof) listening on %s", *debug)
			if err := http.ListenAndServe(*debug, nil); err != nil {
				log.Printf("ksjqd: debug server: %v", err)
			}
		}()
	}

	select {
	case err := <-errc:
		log.Fatalf("ksjqd: %v", err)
	case <-ctx.Done():
	}
	log.Printf("ksjqd: shutting down (grace %v)", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("ksjqd: shutdown: %v", err)
	}
	// Close drains what Shutdown's grace cut loose: in-flight queries, a
	// final checkpoint (service), half-merged scatter-gathers (gateway).
	if err := b.close(); err != nil {
		log.Printf("ksjqd: closing: %v", err)
	}
	log.Printf("ksjqd: bye")
}

// backend is what one ksjqd mode puts behind the listener.
type backend struct {
	handler http.Handler
	close   func() error
	banner  string // the mode's half of the "listening" log line
}

// openService is single-node mode: a local service — durable when dataDir
// is set — with the -load relations registered.
func openService(cfg ksjq.ServiceConfig, dataDir string, loads loadFlags, window, maxTimeout time.Duration) backend {
	var svc *ksjq.Service
	if dataDir != "" {
		var err error
		if svc, err = ksjq.OpenService(cfg, dataDir); err != nil {
			log.Fatalf("ksjqd: opening data dir %s: %v", dataDir, err)
		}
		for _, info := range svc.Relations() {
			log.Printf("recovered relation %s (%d tuples, version %d) from %s", info.Name, info.Tuples, info.Version, dataDir)
		}
	} else {
		svc = ksjq.NewService(cfg)
	}
	preloaded := 0
	for _, spec := range loads {
		loaded, err := preload(svc, spec, window)
		if err != nil {
			log.Fatalf("ksjqd: -load %s: %v", spec.name, err)
		}
		if loaded {
			preloaded++
			log.Printf("loaded relation %s from %s", spec.name, spec.path)
		} else {
			// Recovered from the store — the CSV is only the first boot's
			// seed, not re-parsed every start.
			log.Printf("relation %s already recovered; skipping %s", spec.name, spec.path)
		}
	}
	if dataDir != "" && preloaded > 0 {
		// Fold the preloads into segment files now so the next boot reads
		// columnar segments instead of replaying full-relation WAL records.
		if err := svc.Checkpoint(); err != nil {
			log.Printf("ksjqd: checkpoint after preload: %v", err)
		}
	}
	return backend{
		handler: newServer(svc, maxTimeout),
		close:   svc.Close,
		banner:  fmt.Sprintf("%d relations preloaded, %d already recovered and skipped", preloaded, len(loads)-preloaded),
	}
}

// openGateway is gateway mode: connect to the shard processes and serve
// the scatter-gather wire surface over them. ctx lets a signal interrupt
// the connect.
func openGateway(ctx context.Context, shardList string, timeout, maxTimeout time.Duration) backend {
	var addrs []string
	for _, a := range strings.Split(shardList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatalf("ksjqd: -gateway needs -shards host:port[,host:port...]")
	}
	connectCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	gw, err := shard.New(connectCtx, addrs, shard.Config{ShardTimeout: timeout})
	if err != nil {
		log.Fatalf("ksjqd: connecting to shards: %v", err)
	}
	return backend{
		handler: shard.NewHandler(gw, maxTimeout),
		close:   gw.Close,
		banner:  fmt.Sprintf("gateway over %d shards: %s", len(addrs), strings.Join(addrs, ", ")),
	}
}

// preload registers one -load CSV, unless the store already recovered a
// relation under that name (durable restarts keep their mutations; the
// CSV is only the first boot's seed). Returns whether the CSV was loaded.
func preload(svc *ksjq.Service, spec loadSpec, window time.Duration) (bool, error) {
	if _, err := svc.RelationInfo(spec.name); err == nil {
		return false, nil
	}
	f, err := os.Open(spec.path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	rel, err := ksjq.ReadCSV(f, ksjq.ReadOptions{
		Name: spec.name, Local: spec.local, Agg: spec.agg, HasBand: spec.band,
	})
	if err != nil {
		return false, err
	}
	_, err = svc.RegisterWindow(spec.name, rel, window)
	return err == nil, err
}
