// Command gpuchard is the long-running measurement service (the daemon
// counterpart of gpuchar): an HTTP JSON API that measures the benchmark
// programs through the full simulated measurement stack on demand, coalesces
// concurrent identical requests onto one simulation, runs asynchronous
// sweeps, and keeps its launch traces across restarts.
//
// Usage:
//
//	gpuchard -addr :8080 -store traces/
//	gpuchard -addr :8080 -store traces/ -timeout 5m -workers 4
//
// The same binary is every role of the distributed sweep fabric:
//
//	gpuchard -role standalone                            # default: serve and simulate locally
//	gpuchard -role worker -peers http://coord:8080       # simulate; share launch traces via the coordinator
//	gpuchard -role coordinator -peers http://w0:8080,http://w1:8080,http://w2:8080
//
// Every role is the same server; only where the work runs differs. A
// coordinator never simulates: it consistent-hashes sweep combinations
// across the ready workers, dispatches them as /v1/shard sub-jobs,
// re-dispatches the shards of a worker that dies or drains mid-sweep, and
// merges the results in deterministic store order — byte-identical to the
// same sweep on one standalone process. A frontier or attribution runs as
// one shard on its ring owner, a measure is proxied to its ring owner, and
// both answers are relayed verbatim. Workers are
// standalone servers that additionally accept shards and (when -peers names
// the coordinator) fetch and publish launch traces through it, so the fleet
// captures each (device, program, input) exactly once.
//
// Endpoints (every role speaks the same public API):
//
//	POST /v1/measure     {"program":"NB","input":"...","config":"614"}
//	POST /v1/sweep       {"programs":[...],"configs":[...],"allInputs":false}
//	POST /v1/frontier    {"program":"NB","spec":{...optional DVFS grid...}}
//	POST /v1/attrib      {"programs":[...],"configs":[...]}
//	GET  /v1/jobs/{id}   job progress and result (coordinator jobs list their shards)
//	GET  /v1/results     every cached measurement and exclusion
//	GET  /metrics        Prometheus text exposition (coordinator: federated, per-worker label)
//	GET  /healthz        liveness + cache occupancy
//	GET  /readyz         readiness; flips to 503 the moment a drain starts
//
// plus, per role, POST /v1/shard (standalone and worker: a coordinator's
// sub-job) and GET/PUT /v1/traces/{device}/{program}/{input} (coordinator:
// the fleet's launch-trace store).
//
// -store names the launch-trace directory of a standalone server or a
// worker without -peers (see gpuchar). A restarted server replays a
// repeated request from it with zero captures; its /v1/results lists what
// it has measured since it started. -store is refused (exit code 2) on a
// regular file, on a coordinator and on a worker with -peers.
//
// SIGINT/SIGTERM drain gracefully: /readyz goes 503 (so a coordinator stops
// routing to the worker), the listener closes, and in-flight requests get
// -drain to finish (then their simulations are aborted at the next
// thread-block boundary).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/suites"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		role    = flag.String("role", "standalone", "process role: standalone, worker or coordinator")
		peers   = flag.String("peers", "", "comma-separated peer base URLs: the coordinator's workers, or a worker's coordinator (for trace brokering)")
		store   = flag.String("store", "", "launch-trace directory (standalone, or worker without -peers): each captured trace is written here and replayed after a restart")
		timeout = flag.Duration("timeout", 10*time.Minute, "per-request measurement deadline (0 disables)")
		drain   = flag.Duration("drain", 30*time.Second, "graceful-drain bound on shutdown before in-flight simulations are aborted (0 waits indefinitely)")
		health  = flag.Duration("health", 5*time.Second, "coordinator membership staleness bound: ready-worker probes are refreshed at least this often")
		reps    = flag.Int("reps", 3, "measurement repetitions per configuration (the paper uses 3)")
		workers = flag.Int("workers", 0, "simulation worker budget shared by concurrent requests, sweeps and block sharding (0 = GOMAXPROCS)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "gpuchard: ", log.LstdFlags)

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, strings.TrimRight(p, "/"))
		}
	}

	runner := core.NewRunner()
	runner.Repetitions = *reps
	runner.Workers = *workers
	// A coordinator neither captures nor replays, and a brokered worker
	// keeps its traces at its coordinator.
	var misuse error
	if *store != "" && (*role == "coordinator" || *role == "worker" && len(peerList) > 0) {
		misuse = errors.New("-store: a coordinator, or a worker with -peers, keeps no traces")
	} else if *store != "" {
		runner.Broker, misuse = core.NewDirBroker(*store)
	}
	if misuse != nil {
		fmt.Fprintln(os.Stderr, "gpuchard:", misuse)
		os.Exit(2)
	}

	cfg := serve.Config{
		Runner:         runner,
		Programs:       suites.All(),
		RequestTimeout: *timeout,
		DrainTimeout:   *drain,
		Log:            logger,
		HealthEvery:    *health,
	}
	build := serve.New
	switch *role {
	case "standalone":
	case "worker":
		if len(peerList) > 0 {
			// The worker's first peer is its coordinator: launch traces
			// captured here are published there, and captures made anywhere
			// in the fleet are adopted here instead of re-simulating.
			runner.Broker = serve.NewHTTPTraceBroker(peerList[0], runner.Metrics())
			logger.Printf("worker: brokering launch traces via %s", peerList[0])
		}
	case "coordinator":
		cfg.Peers = peerList
		build = serve.NewCoordinator
	default:
		logger.Fatalf("unknown -role %q (want standalone, worker or coordinator)", *role)
	}
	srv, err := build(cfg)
	if err != nil {
		logger.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}

	// SIGINT/SIGTERM start the graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Printf("%s listening on %s (%d programs, %d peers, store %q)", *role, ln.Addr(), len(suites.All()), len(peerList), *store)
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintln(os.Stderr, "gpuchard:", err)
		os.Exit(1)
	}
	logger.Printf("drained cleanly")
}
