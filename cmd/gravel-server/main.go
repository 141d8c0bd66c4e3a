// Command gravel-server is gravel-as-a-service: a long-lived,
// multi-tenant job daemon over the harness registry. Clients submit
// cluster-run jobs as HTTP/JSON; the server queues them with
// priorities, dedups identical in-flight requests, retries failed
// workers with backoff, serves repeated requests from an LRU result
// cache, and multiplexes execution across a pool of warm noderun
// worker sets. One address serves everything: the job API under
// /api/v1/ and the observability endpoints /metrics and /healthz.
//
// Usage:
//
//	gravel-server -listen 127.0.0.1:8484 -pool 4
//	gravel-server -selfbench -json selfbench.json
//
// API sketch (see README "Service mode" for a walkthrough):
//
//	POST   /api/v1/jobs            submit {"app","model","nodes","fabric","scale","seed","priority",...}
//	GET    /api/v1/jobs            list all jobs
//	GET    /api/v1/jobs/{id}       job status (?wait=30s long-polls to terminal)
//	GET    /api/v1/jobs/{id}/events stream progress as JSON lines
//	DELETE /api/v1/jobs/{id}       cancel
//	GET    /api/v1/registry        registered apps / models / transports
//	GET    /api/v1/admin/queue     queue depth, dedup/cache/retry counters
//	GET    /api/v1/admin/workers   worker-pool slots
//	GET    /metrics, /healthz      shared observability endpoints
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gravel/internal/buildinfo"
	"gravel/internal/jobqueue"
	"gravel/internal/noderun"
	"gravel/internal/obs"
	"gravel/internal/server"
)

var (
	listen       = flag.String("listen", "127.0.0.1:8484", "serve the job API, /metrics and /healthz on this address (:0 picks a port)")
	pool         = flag.Int("pool", 2, "warm worker slots: jobs executing concurrently")
	cacheSize    = flag.Int("cache", 256, "result-cache capacity in entries (<0 disables)")
	retries      = flag.Int("retries", 2, "re-executions of a failed job before it is declared failed")
	retryBackoff = flag.Duration("retry-backoff", 100*time.Millisecond, "delay before the first retry (doubles per retry)")
	backoffMax   = flag.Duration("retry-backoff-max", 5*time.Second, "retry backoff ceiling")
	workerBin    = flag.String("worker-bin", "", "binary exec-fabric workers re-exec (default: this executable)")
	drainFor     = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget: how long SIGINT/SIGTERM waits for in-flight jobs before forcing")
	version      = flag.Bool("version", false, "print the build-info string and exit")
	selfbench    = flag.Bool("selfbench", false, "benchmark the service against itself (jobs/sec, submit-to-result latency) and exit")
	jsonPath     = flag.String("json", "", "selfbench: also write machine-readable results to this path")
)

func main() {
	// A process forked by the pool's exec fabric is a cluster worker.
	noderun.MaybeWorkerMain()
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Full("gravel-server"))
		return
	}
	// The flight recorder feeds /metrics histograms and the per-job
	// progress streams' stats deltas.
	obs.Start(obs.Options{})
	defer obs.Stop()

	if *selfbench {
		if err := runSelfbench(*jsonPath); err != nil {
			fatal(err)
		}
		return
	}

	srv, err := server.New(*listen, serverOptions(*pool))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("gravel-server: listening on %s (pool %d, cache %d, retries %d, build %s)\n",
		srv.Addr(), *pool, *cacheSize, *retries, buildinfo.String())

	// Graceful shutdown: the first signal starts a drain — new submits
	// are refused with 503 while queued and running jobs finish within
	// the -drain budget; a second signal (or the budget expiring) forces
	// the close, canceling whatever remains.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("gravel-server: draining for up to %v (signal again to force)\n", *drainFor)
	go func() {
		<-sig
		fmt.Println("gravel-server: forced shutdown")
		srv.Close()
	}()
	if err := srv.Shutdown(*drainFor); err != nil {
		fatal(err)
	}
	fmt.Println("gravel-server: drained")
}

func serverOptions(poolSize int) server.Options {
	return server.Options{
		Queue: jobqueue.Options{
			MaxRetries:      *retries,
			RetryBackoff:    *retryBackoff,
			RetryBackoffMax: *backoffMax,
			CacheSize:       *cacheSize,
		},
		Pool:      poolSize,
		WorkerBin: *workerBin,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gravel-server:", err)
	os.Exit(1)
}
