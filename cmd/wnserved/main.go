// Command wnserved serves the sweep engine over HTTP: a
// simulation-as-a-service daemon that accepts batches of sweep specs,
// reconstructs each cell from the experiments resolver registry, runs them
// through one shared bounded worker pool, and streams per-cell progress and
// results as NDJSON. Results are byte-identical to a local sweep, so
// `wnbench -remote` can target it transparently.
//
// Endpoints:
//
//	POST /v1/jobs              submit {"specs":[...], "timeout":"30s"}
//	GET  /v1/jobs              list known jobs
//	GET  /v1/jobs/{id}         job status (+results when done)
//	GET  /v1/jobs/{id}/stream  NDJSON progress/result/done events
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz, /readyz     liveness / readiness (503 while draining)
//
// SIGINT/SIGTERM starts a graceful drain: new submissions are shed with
// 429 while accepted jobs finish, bounded by -drain; a second signal
// aborts the in-flight sweep immediately.
//
// Usage:
//
//	wnserved [-addr :8080] [-parallel N] [-cache DIR] [-cache-mem N]
//	         [-queue N] [-max-cells N] [-timeout D] [-drain D]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"whatsnext/internal/experiments"
	"whatsnext/internal/serve"
	"whatsnext/internal/sweep"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		addr     = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		parallel = flag.Int("parallel", 0, "sweep workers shared by all jobs (0 = all CPUs)")
		cacheDir = flag.String("cache", "", "persist results on disk under this directory")
		cacheMem = flag.Int("cache-mem", 4096, "in-memory result cache entries (0 = unbounded)")
		queue    = flag.Int("queue", 16, "job queue depth before submissions are shed with 429")
		maxCells = flag.Int("max-cells", 4096, "largest accepted batch")
		timeout  = flag.Duration("timeout", 0, "default per-job deadline (0 = none)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		quiet    = flag.Bool("quiet", false, "suppress request logs")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *quiet {
		logger = nil
	}

	var cache sweep.Cache
	if *cacheDir != "" {
		dc, err := sweep.NewDiskCacheSize(*cacheDir, *cacheMem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wnserved:", err)
			return 1
		}
		cache = dc
	} else {
		cache = sweep.NewMemoryCacheSize(*cacheMem)
	}

	srv, err := serve.New(serve.Config{
		Resolver:       experiments.ResolveSpec,
		Workers:        *parallel,
		Cache:          cache,
		QueueDepth:     *queue,
		MaxCells:       *maxCells,
		DefaultTimeout: *timeout,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wnserved:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wnserved:", err)
		return 1
	}
	// Print the resolved address on stdout so scripts can parse the port
	// when listening on :0.
	fmt.Printf("wnserved: listening on http://%s\n", hostport(ln.Addr().(*net.TCPAddr)))
	fmt.Printf("wnserved: resolvable experiments: %s\n",
		strings.Join(experiments.ResolvableExperiments(), ", "))

	hs := &http.Server{Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Printf("wnserved: %s: draining (budget %s; signal again to abort)\n", sig, *drain)
	case err := <-httpErr:
		fmt.Fprintln(os.Stderr, "wnserved:", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		<-sigs
		fmt.Println("wnserved: aborting in-flight work")
		cancel()
	}()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "wnserved: drain cut short:", err)
	}
	hs.Shutdown(context.Background())
	fmt.Println("wnserved: bye")
	return 0
}

// hostport renders a dialable address: a wildcard listen comes back as
// localhost so the printed URL works directly in curl.
func hostport(a *net.TCPAddr) string {
	if a.IP == nil || a.IP.IsUnspecified() {
		return fmt.Sprintf("localhost:%d", a.Port)
	}
	return a.String()
}
