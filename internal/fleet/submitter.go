package fleet

import "context"

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
