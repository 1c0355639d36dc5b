package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/cli"
)

// Handle is one submitted job as seen by its submitter: wait for the
// results, and keep the ID for a reattach after a restart.
type Handle interface {
	// ID is the job's durable identifier.
	ID() string

	// Wait blocks for the results. ctx's error means the submitter gave
	// up; ErrCoordinatorClosed means the coordinator went away and the
	// job may be resumable once it is back.
	Wait(ctx context.Context) ([]TaskResult, error)
}

// Submitter is anything that accepts fleet jobs: the in-process
// *Coordinator, or a *Client talking to a resident fleetd over HTTP.
// experiment.RunCampaignFleet and NewRemoteEvaluator take a Submitter,
// so the same campaign code runs against either.
type Submitter interface {
	// SubmitTasks enqueues specs as one job. With a non-empty id it is
	// submit-or-attach: if a live job already holds that id (this
	// submitter's previous incarnation submitted it), the specs
	// fingerprint is verified and the existing job returned with
	// attached=true. An empty id always submits a fresh auto-named job.
	SubmitTasks(id string, specs []TaskSpec) (h Handle, attached bool, err error)

	// SubmitterStats snapshots the coordinator's counters — over the
	// wire for a remote submitter, hence the error.
	SubmitterStats() (Stats, error)
}

// SubmitterStats implements Submitter on the in-process coordinator.
func (c *Coordinator) SubmitterStats() (Stats, error) { return c.Stats(), nil }

// Dial returns the Submitter named by target, the value of the tune and
// figures -fleet flag, and a func that releases it:
//
//   - "serve=HOST:PORT" starts an in-process coordinator and serves its
//     worker API on that address; evald workers register there.
//   - a URL or host:port is a resident fleetd, reached through a Client.
//
// logf, when set, receives the coordinator's or the client's events.
func Dial(target string, logf func(format string, args ...interface{})) (Submitter, func(), error) {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	addr, serve := strings.CutPrefix(target, "serve=")
	if !serve {
		base, err := cli.RemoteURL("-fleet", target)
		if err != nil {
			return nil, nil, err
		}
		logf("fleet: submitting to resident coordinator %s", base)
		return &Client{Base: base, Logf: logf}, func() {}, nil
	}
	if err := cli.ListenAddr("-fleet serve=", addr); err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet listener: %w", err)
	}
	c := New(Config{Logf: logf})
	srv := &http.Server{Handler: c.Handler()}
	go func() { _ = srv.Serve(ln) }()
	logf("fleet: coordinator on %s; start workers with: evald -coordinator %s", ln.Addr(), ln.Addr())
	return c, func() {
		c.Close() // answers held lease requests, so the shutdown is prompt
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}, nil
}
