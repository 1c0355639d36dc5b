// Command fleetd is the resident fleet coordinator: it serves the
// internal/fleet job and worker APIs over HTTP, journaling every
// submit, lease, and completion to a write-ahead log so that neither a
// coordinator crash nor a submitter crash loses paid-for evaluations.
//
// Usage:
//
//	fleetd -addr :9090 -journal /var/lib/fleetd [-drain-timeout 30s]
//
// On startup the daemon replays every journal segment in -journal
// (skipping a torn tail left by a crash), restores completed task
// payloads verbatim, and conservatively re-queues work that was leased
// to a worker when the previous process died. Submitters reattach to
// their surviving jobs by job ID and collect results — including
// cells finished before the crash — without re-evaluating them.
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish, the
// journal segment is sealed, and queued work stays journaled for the
// next boot. A second signal aborts the drain and exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	journal := flag.String("journal", "", "write-ahead journal directory (empty disables durability)")
	lease := flag.Duration("lease", 0, "lease TTL before a silent worker's tasks re-queue (0 = default 15s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	flag.Parse()

	if err := cli.FirstError(
		cli.ListenAddr("-addr", *addr),
		cli.NonNegativeDuration("-lease", *lease),
		cli.PositiveDuration("-drain-timeout", *drainTimeout),
	); err != nil {
		cli.Fatalf("%v", err)
	}

	logger := log.New(os.Stderr, "fleetd: ", log.LstdFlags)
	if err := run(*addr, *journal, *lease, *drainTimeout, logger); err != nil {
		logger.Printf("exiting: %v", err)
		os.Exit(cli.ExitCode(err))
	}
}

func run(addr, journal string, lease, drainTimeout time.Duration, logger *log.Logger) error {
	if journal != "" {
		if err := os.MkdirAll(journal, 0o755); err != nil {
			return fmt.Errorf("journal dir: %w", err)
		}
	}
	coord, err := fleet.Open(fleet.Config{
		Journal:  journal,
		LeaseTTL: lease,
		Logf:     logger.Printf,
	})
	if err != nil {
		return fmt.Errorf("opening coordinator: %w", err)
	}
	st := coord.Stats()
	if st.RecoveredTasks > 0 {
		logger.Printf("recovered %d tasks from journal (%d completed, %d re-queued)",
			st.RecoveredTasks, st.RecoveredCompleted, st.RecoveredRequeued)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Printf("serving on %s (journal: %s)", ln.Addr(), dirOrOff(journal))

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: finish in-flight requests, then close — pending
	// work stays journaled so the next boot resumes it.
	logger.Printf("signal received, draining (budget %s)", drainTimeout)
	stop()
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	abort := make(chan os.Signal, 1)
	signal.Notify(abort, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(abort)
	go func() {
		select {
		case <-abort:
			logger.Printf("second signal, aborting drain")
			cancel()
		case <-dctx.Done():
		}
	}()

	shutdownErr := srv.Shutdown(dctx)
	coord.Close()
	if shutdownErr != nil || dctx.Err() != nil {
		return context.Canceled // 130: the drain was cut short
	}
	logger.Printf("drained cleanly")
	return nil
}

func dirOrOff(dir string) string {
	if dir == "" {
		return "off"
	}
	return dir
}
