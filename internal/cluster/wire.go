package cluster

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// This file defines the coordinator↔worker wire protocol — JSON over the
// daemon's /v1/workers endpoints. Job payloads reuse the public job API's
// wire types (server.JobConfig, server.JobResult), so a schedule computed
// remotely is byte-identical on the wire to one computed locally.
// docs/API.md documents the same shapes; the two must move together.

// ProtocolVersion is the cluster wire protocol revision this build
// speaks. Every request decoder rejects unknown fields, so adding a
// field is a breaking change for older peers — the version handshake
// turns that silent decode drift into a typed rejection. Version 2
// added lease tokens, held-lease re-registration, and the unified
// error envelope.
const ProtocolVersion = 2

// ProtocolError reports a register/lease/report attempt by a worker
// speaking a different protocol revision than the coordinator. A zero
// Worker version means the peer predates the handshake entirely.
type ProtocolError struct {
	Worker      int
	Coordinator int
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("cluster: protocol version mismatch: worker speaks v%d, coordinator speaks v%d", e.Worker, e.Coordinator)
}

// RegisterRequest is the body of POST /v1/workers/register: a worker
// announcing itself and its capacity. A worker that held leases from a
// previous coordinator incarnation re-presents them so the coordinator
// can adopt the in-flight solves instead of failing them over.
type RegisterRequest struct {
	// ProtocolVersion is the wire revision the worker speaks; the
	// coordinator rejects a mismatch with a typed error naming both
	// versions. Zero (the field absent) means a pre-versioned worker.
	ProtocolVersion int `json:"protocol_version"`
	// Name is a human-readable label (hostname by default); the coordinator
	// assigns the unique ID.
	Name string `json:"name"`
	// Capacity is how many jobs the worker solves concurrently.
	Capacity int `json:"capacity"`
	// Engines are the registry engines the worker serves, for the
	// /v1/engines cluster view.
	Engines []string `json:"engines,omitempty"`
	// HeldLeases are the leases this worker still holds from before the
	// coordinator restarted (or before its own ID was forgotten); the
	// coordinator answers adopt/abandon per lease in Adoptions.
	HeldLeases []HeldLease `json:"held_leases,omitempty"`
}

// HeldLease is one in-flight lease a re-registering worker presents for
// adoption: the job, the secret token the original grant carried, and
// the attempt number the worker is solving under.
type HeldLease struct {
	JobID   string `json:"job_id"`
	Token   string `json:"token"`
	Attempt int    `json:"attempt"`
}

// LeaseAdoption is the coordinator's verdict on one presented lease:
// adopted means the worker keeps solving and reports under its new
// worker ID; otherwise the worker must cancel the solve (Reason says
// why — the job finished, was re-queued, or the token didn't match).
type LeaseAdoption struct {
	JobID   string `json:"job_id"`
	Adopted bool   `json:"adopted"`
	Reason  string `json:"reason,omitempty"`
}

// RegisterResponse returns the assigned worker ID and the cadence contract:
// a leased job must be reported on (or the lease re-confirmed) within the
// lease TTL, and the worker should report progress every interval.
type RegisterResponse struct {
	WorkerID         string `json:"worker_id"`
	LeaseTTLMS       int64  `json:"lease_ttl_ms"`
	ReportIntervalMS int64  `json:"report_interval_ms"`
	// Adoptions answers the request's HeldLeases one-to-one (matched by
	// job ID); empty when the worker presented none.
	Adoptions []LeaseAdoption `json:"adoptions,omitempty"`
}

// HeartbeatRequest is the body of POST /v1/workers/heartbeat. Lease polls
// and job reports refresh the worker's liveness implicitly; the explicit
// endpoint covers a worker that is momentarily doing neither (draining,
// or a custom client between phases).
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaveRequest is the body of POST /v1/workers/leave: a worker that
// drained gracefully deregistering, so the coordinator stops counting its
// slots as free without waiting for the failure detector.
type LeaveRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaseRequest is the body of POST /v1/workers/lease: a long poll for the
// next queued job. The coordinator holds the request up to WaitMS (capped
// by its own poll bound) when the queue is empty.
type LeaseRequest struct {
	// ProtocolVersion is the wire revision the worker speaks; see
	// RegisterRequest.ProtocolVersion.
	ProtocolVersion int    `json:"protocol_version"`
	WorkerID        string `json:"worker_id"`
	WaitMS          int64  `json:"wait_ms,omitempty"`
}

// LeasedJob is one job handed to a worker: the instance in its canonical
// JSON wire forms plus the submitter's engine selection and budget.
type LeasedJob struct {
	ID string `json:"id"`
	// Attempt counts the leases granted for this job, 1-based; > 1 means
	// the job failed over from another worker.
	Attempt int              `json:"attempt"`
	Graph   json.RawMessage  `json:"graph"`
	System  json.RawMessage  `json:"system"`
	Engines []string         `json:"engines"`
	Config  server.JobConfig `json:"config"`
	// TraceID is the job's trace identifier, assigned by the daemon at
	// submission; the worker stamps it on its log records and the spans it
	// reports back, so the remote attempt correlates end to end.
	TraceID string `json:"trace_id,omitempty"`
	// Token is the lease's adoption credential: a random secret the
	// worker re-presents at re-registration to prove it holds this exact
	// grant, so a restarted coordinator re-adopts the in-flight solve
	// instead of failing it over.
	Token string `json:"token,omitempty"`
}

// LeaseResponse is the body of a 200 lease reply; Job is null when the
// poll timed out with nothing to run.
type LeaseResponse struct {
	Job *LeasedJob `json:"job"`
}

// ReportRequest is the body of POST /v1/workers/jobs/{id}/report — the
// worker's progress heartbeat while solving, and its terminal report.
// Exactly one of the terminal flags may be set: Done carries the outcome
// (Result or Error), Abandon hands the job back for re-leasing (a worker
// draining on shutdown).
type ReportRequest struct {
	// ProtocolVersion is the wire revision the worker speaks; see
	// RegisterRequest.ProtocolVersion.
	ProtocolVersion int    `json:"protocol_version"`
	WorkerID        string `json:"worker_id"`
	// ProgressSnapshot is the attempt's progress: its counters are the
	// absolute totals of this attempt, which the coordinator folds into
	// the job's live progress on top of the counts earlier attempts
	// accumulated; its gauges (incumbent, best_f, open_len) replace the
	// job's, so the daemon's telemetry sampler sees a remote search
	// converge too.
	core.ProgressSnapshot

	Done    bool              `json:"done,omitempty"`
	Result  *server.JobResult `json:"result,omitempty"`
	Error   string            `json:"error,omitempty"`
	Abandon bool              `json:"abandon,omitempty"`
	// Spans carries the worker-side lifecycle spans of the attempt
	// (decode, solve), sent on terminal reports only; the coordinator
	// folds them into the job's trace.
	Spans []obs.Span `json:"spans,omitempty"`
}

// ReportResponse acknowledges a report. Cancel tells the worker to stop
// the solve: the job was cancelled (or the daemon is shutting down) and
// no further reports are expected.
type ReportResponse struct {
	Cancel bool `json:"cancel"`
}

// WorkerInfo is one row of GET /v1/workers.
type WorkerInfo struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Capacity int      `json:"capacity"`
	Leased   int      `json:"leased"`
	JobsDone int64    `json:"jobs_done"`
	Engines  []string `json:"engines,omitempty"`
	// LastSeenMS is the time since the worker's last heartbeat (register,
	// lease poll, report, or explicit heartbeat).
	LastSeenMS int64 `json:"last_seen_ms"`
}

// WorkerList is the body of GET /v1/workers.
type WorkerList struct {
	Workers []WorkerInfo `json:"workers"`
}
