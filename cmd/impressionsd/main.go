// Command impressionsd is the generation-as-a-service daemon: a long-running
// HTTP server exposing the distributed pipeline's plan builder behind a
// content-addressed plan cache, per-shard plan slicing for pull-based
// workers, inline generation for small images, and a lease-based shard
// scheduler that drives whole distributed runs over a fleet of unreliable
// workers.
//
// Endpoints:
//
//	POST /v1/plans                     build-or-fetch a plan for a JSON spec
//	GET  /v1/plans/{fp}/shards/{i}     pull one shard's self-contained view
//	POST /v1/generate                  generate a small image inline (digest + report)
//	POST /v1/runs                      start a scheduled distributed run
//	GET  /v1/runs/{id}                 run status: shard states, re-run commands, digest
//	GET  /v1/stats                     cache and worker counters
//	GET  /v1/fleet/stats               scheduler counters (leases, requeues, expiry latency)
//	POST /v1/fleet/workers             join the fleet (impressions worker -join)
//	POST /v1/fleet/workers/{id}/heartbeat
//	POST /v1/fleet/workers/{id}/lease  claim one shard attempt
//	POST /v1/fleet/leases/{id}/complete upload a shard manifest
//	POST /v1/fleet/leases/{id}/fail    give a lease back: the attempt failed, re-queue the shard now
//	GET  /healthz                      liveness (always 200 while the process serves)
//	GET  /readyz                       readiness (503 while draining)
//
// Examples:
//
//	impressionsd -addr :7077
//	impressionsd -addr 127.0.0.1:0 -store disk -store-dir /var/cache/impressions
//	impressionsd -workers 4 -cache-bytes 67108864 -request-timeout 2m
//	impressionsd -heartbeat-interval 1s -lease-ttl 30s -max-attempts 4
//
// On SIGINT/SIGTERM the daemon flips /readyz to 503, waits -drain-grace so
// load balancers notice, stops accepting connections, and drains in-flight
// requests for up to -drain-timeout before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"impressions/internal/fleet"
	"impressions/internal/serve"
)

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}

// Main runs the daemon; split from main for testability.
func Main(args []string, stdout, stderr io.Writer) int {
	if err := run(args, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "impressionsd: %v\n", err)
		return 1
	}
	return 0
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressionsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr           = fs.String("addr", "127.0.0.1:7077", "listen address (host:port; port 0 picks a free port)")
		storeKind      = fs.String("store", "mem", "plan store backend: mem (LRU with a byte budget) or disk")
		storeDir       = fs.String("store-dir", "", "plan directory for -store disk (required with it)")
		cacheBytes     = fs.Int64("cache-bytes", 0, "byte budget of the in-memory plan cache (0 selects 256 MiB)")
		workers        = fs.Int("workers", 0, "max concurrent heavy requests (0 selects GOMAXPROCS)")
		requestTimeout = fs.Duration("request-timeout", 5*time.Minute, "per-request deadline for builds and generations")
		drainGrace     = fs.Duration("drain-grace", 0, "how long to stay up (not ready) after SIGTERM before refusing connections, so load balancers drain us")
		drainTimeout   = fs.Duration("drain-timeout", 30*time.Second, "how long to drain in-flight requests on shutdown")
		maxInline      = fs.Int("max-inline-files", 0, "largest normalized file count /v1/generate accepts (0 selects the default)")
		maxShards      = fs.Int("max-shards", 0, "largest shard count a plan request may ask for (0 selects the default)")
		hbInterval     = fs.Duration("heartbeat-interval", 0, "fleet worker heartbeat cadence (0 selects the default)")
		hbMisses       = fs.Int("heartbeat-misses", 0, "missed heartbeats before a worker is dead (0 selects the default)")
		leaseTTL       = fs.Duration("lease-ttl", 0, "per-attempt shard lease deadline (0 selects the default)")
		maxAttempts    = fs.Int("max-attempts", 0, "lease attempts per shard before a run fails (0 selects the default)")
		inlineGrace    = fs.Duration("inline-grace", 0, "how long a run may starve with zero live workers before the daemon executes shards inline (0 selects the default, negative disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	var store serve.PlanStore
	switch *storeKind {
	case "mem":
		store = serve.NewMemStore(*cacheBytes)
	case "disk":
		if *storeDir == "" {
			return fmt.Errorf("-store disk requires -store-dir")
		}
		ds, err := serve.NewDiskStore(*storeDir)
		if err != nil {
			return err
		}
		store = ds
	default:
		return fmt.Errorf("unknown store %q (want mem or disk)", *storeKind)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	srv := serve.New(serve.Options{
		Store:          store,
		Workers:        *workers,
		RequestTimeout: *requestTimeout,
		MaxInlineFiles: *maxInline,
		MaxShards:      *maxShards,
		PublicURL:      "http://" + ln.Addr().String(),
		Fleet: fleet.Options{
			HeartbeatInterval: *hbInterval,
			HeartbeatMisses:   *hbMisses,
			LeaseTTL:          *leaseTTL,
			MaxAttempts:       *maxAttempts,
			InlineGrace:       *inlineGrace,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(stdout, format+"\n", a...)
			},
		},
	})

	// The resolved address line is the daemon's readiness contract: scripts
	// (and the boot test) parse it to learn the port when -addr used port 0.
	fmt.Fprintf(stdout, "impressionsd: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The scheduler's supervision loop (lease expiry, re-queues, inline
	// fallback) runs for the daemon's whole life, at a fraction of the
	// heartbeat interval so missed beats are noticed promptly.
	tick := srv.Fleet().Options().HeartbeatInterval / 4
	go srv.Fleet().Loop(ctx, tick)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	// Readiness goes false first: load balancers polling /readyz stop
	// routing to us while we keep answering in-flight (and stray) requests
	// for the grace window. Liveness stays green the whole way down.
	srv.SetReady(false)
	if *drainGrace > 0 {
		fmt.Fprintf(stdout, "impressionsd: not ready, draining connections for %s\n", *drainGrace)
		time.Sleep(*drainGrace)
	}
	fmt.Fprintf(stdout, "impressionsd: draining (up to %s)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "impressionsd: stopped")
	return nil
}
