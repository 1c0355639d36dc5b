// Command evald is the fleet evaluator worker: it registers with a
// coordinator (a resident fleetd, a figures/tune run with -fleet
// serve=HOST:PORT, or any process embedding fleet.Coordinator), leases
// campaign cells and batched evaluation tasks, executes them with the
// standard experiment runner, and reports checksummed results back.
//
// Usage:
//
//	evald -coordinator host:9090 [-name worker-a] [-slots 1]
//	      [-drain-timeout 30s] [-chaos crash=0.01,hang=0.05:2s]
//
// The worker is resident: while the coordinator is unreachable it
// retries registration with backoff, so one evald can serve a whole
// sequence of figure runs. SIGINT/SIGTERM drain gracefully — no new
// leases, in-flight tasks finish and report, the worker deregisters,
// exit 0. A second signal abandons the leases on the spot and exits
// 130; the coordinator recovers them by lease expiry.
//
// -chaos injects process-level faults for fleet drills (grammar:
// crash=RATE,hang=RATE[:DUR],panic=RATE,corrupt=RATE,seed=N); the
// equivalence gates prove a chaos-ridden fleet still produces
// bit-identical campaign curves.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/fleet"
)

func main() {
	coordinator := flag.String("coordinator", "", "coordinator base URL or host:port (required)")
	name := flag.String("name", "", "worker name in coordinator logs (default: hostname)")
	slots := flag.Int("slots", 1, "concurrent leases")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight leases")
	chaosSpec := flag.String("chaos", "", "fault injection spec: "+chaos.WorkerGrammar)
	flag.Parse()

	base, err := cli.RemoteURL("-coordinator", *coordinator)
	if err == nil {
		err = cli.FirstError(
			cli.PositiveInt("-slots", *slots),
			cli.PositiveDuration("-drain-timeout", *drainTimeout),
		)
	}
	if err != nil {
		cli.Fatalf("%v", err)
	}
	wc, err := chaos.ParseWorker(*chaosSpec)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if *name == "" {
		host, herr := os.Hostname()
		if herr != nil {
			host = "evald"
		}
		// Unique per process: the name seeds the re-register jitter, so
		// co-located workers must not share it.
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	logger := log.New(os.Stderr, "evald: ", log.LstdFlags)
	w := &fleet.Worker{
		Coordinator:  base,
		Name:         *name,
		Runner:       experiment.NewFleetRunner(),
		Chaos:        wc,
		Slots:        *slots,
		DrainTimeout: *drainTimeout,
		Logf:         logger.Printf,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A second signal abandons the drain: Kill drops the leases and
	// Run returns ErrKilled, which classifies as an interrupt (130).
	go func() {
		<-ctx.Done()
		stop()
		abort := make(chan os.Signal, 1)
		signal.Notify(abort, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(abort)
		select {
		case <-abort:
			logger.Printf("second signal, abandoning leases")
			w.Kill()
		case <-time.After(*drainTimeout + time.Second):
		}
	}()

	logger.Printf("worker %s serving coordinator %s (%d slots)", w.Name, base, *slots)
	if err := w.Run(ctx); err != nil {
		logger.Printf("exiting: %v", err)
		os.Exit(cli.ExitCode(err))
	}
	logger.Printf("drained cleanly")
}
