// Package serve exposes the sweep engine as a long-running HTTP service:
// simulation as a service over the What's Next reproduction. A resident
// server keeps the compile cache and result cache warm across requests —
// everything a one-shot CLI invocation throws away — and lets remote
// clients sweep the paper's design space (Table I modes, speedup studies,
// capacitor/harvester ablations) against one shared backend.
//
// The API surface:
//
//	POST /v1/jobs             submit a batch of sweep.Spec cells; 202 + job id
//	GET  /v1/jobs             list retained jobs
//	GET  /v1/jobs/{id}        job status (+ ordered results once done)
//	GET  /v1/jobs/{id}/stream NDJSON: live per-cell progress, then per-cell
//	                          results in submission order, then a terminal event
//	GET  /metrics             Prometheus text format (engine + server counters)
//	GET  /healthz             process liveness
//	GET  /readyz              accepting work (503 while draining)
//
// Concurrency model: submissions land in a bounded FIFO queue and a single
// dispatcher executes them one job at a time through a shared sweep.Engine,
// so the configured worker budget is the server-wide simulation
// parallelism, shared across requests rather than multiplied by them. When
// the queue is full — or the server is draining — submissions are shed with
// 429 and a Retry-After hint. Shutdown stops intake, finishes the jobs
// already accepted, and can be cut short by cancelling the shutdown
// context, which cancels the running sweep between cells (sweep.RunContext).
//
// Determinism: the server executes exactly the closures the resolver
// reconstructs from submitted specs — the same registry the CLI studies
// enumerate through — so a server-returned result is byte-identical to a
// local sweep.Engine run of the same spec, and both share cache keys.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"whatsnext/internal/sweep"
)

// Config assembles a Server.
type Config struct {
	// Resolver turns a submitted spec into a runnable job; submissions
	// whose specs it rejects are refused with 400. Required (the binary
	// wires in experiments.ResolveSpec; tests inject fakes).
	Resolver func(sweep.Spec) (sweep.Job, error)
	// Workers is the engine pool size — the server-wide simulation worker
	// budget shared by all jobs; <= 0 selects all CPUs.
	Workers int
	// Cache, when non-nil, is the engine's result cache.
	Cache sweep.Cache
	// QueueDepth bounds the number of accepted-but-unstarted jobs; further
	// submissions are shed with 429. <= 0 selects 16.
	QueueDepth int
	// MaxCells bounds the specs in one submission (413 beyond it). <= 0
	// selects 4096.
	MaxCells int
	// DefaultTimeout applies to jobs whose submission carries no timeout;
	// zero means no deadline.
	DefaultTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses; <= 0 selects 1s.
	RetryAfter time.Duration
	// MaxJobsRetained bounds the finished-job history kept for GET (oldest
	// terminal jobs are dropped first). <= 0 selects 256.
	MaxJobsRetained int
	// Logger receives structured request and job logs; nil discards them.
	Logger *slog.Logger
}

// Server is the simulation service. Create with New, mount Handler, and
// call Shutdown to drain.
type Server struct {
	cfg Config
	eng *sweep.Engine
	log *slog.Logger

	hist *histogram // per-cell wall time

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing and eviction
	queue    chan *job
	seq      int64
	draining bool
	current  *job // job whose cells the engine is running now

	rejected int64 // submissions shed with 429

	baseCtx context.Context
	cancel  context.CancelFunc
	done    chan struct{} // dispatcher exited
}

// New builds a Server and starts its dispatcher.
func New(cfg Config) (*Server, error) {
	if cfg.Resolver == nil {
		return nil, fmt.Errorf("serve: Config.Resolver is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 4096
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxJobsRetained <= 0 {
		cfg.MaxJobsRetained = 256
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		hist:    newHistogram(),
		jobs:    make(map[string]*job),
		queue:   make(chan *job, cfg.QueueDepth),
		baseCtx: ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	s.eng = sweep.New(sweep.Options{
		Workers:    cfg.Workers,
		Cache:      cfg.Cache,
		OnProgress: s.onProgress,
	})
	go s.dispatch()
	return s, nil
}

// Engine exposes the shared engine (for metrics and logs).
func (s *Server) Engine() *sweep.Engine { return s.eng }

// onProgress routes engine progress into the running job's event stream
// and the wall-time histogram. The engine serializes these callbacks.
func (s *Server) onProgress(p sweep.Progress) {
	s.hist.observe(p.Wall.Seconds())
	s.mu.Lock()
	j := s.current
	s.mu.Unlock()
	if j != nil {
		j.progress(p)
	}
}

// dispatch runs accepted jobs in FIFO order, one at a time, until Shutdown
// closes the queue.
func (s *Server) dispatch() {
	defer close(s.done)
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job through the shared engine under its deadline.
func (s *Server) runJob(j *job) {
	ctx := s.baseCtx
	if j.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}
	s.mu.Lock()
	s.current = j
	s.mu.Unlock()
	j.start()
	s.log.Info("job start", "job", j.id, "cells", len(j.jobs))

	results, err := s.eng.RunContext(ctx, j.jobs)

	s.mu.Lock()
	s.current = nil
	s.mu.Unlock()
	j.finish(results, err)
	st := j.status()
	s.log.Info("job finish", "job", j.id, "state", st.State, "cells", st.Cells,
		"cache_hits", st.CacheHits, "wall", time.Since(st.Submitted).Round(time.Millisecond))
}

// submit validates, resolves and enqueues a request. It returns the job or
// an apiError for the handler to render.
func (s *Server) submit(req submitRequest) (*job, *apiError) {
	if len(req.Specs) == 0 {
		return nil, &apiError{http.StatusBadRequest, "no specs in submission"}
	}
	if len(req.Specs) > s.cfg.MaxCells {
		return nil, &apiError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%d specs exceeds the %d-cell limit", len(req.Specs), s.cfg.MaxCells)}
	}
	timeout := s.cfg.DefaultTimeout
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d < 0 {
			return nil, &apiError{http.StatusBadRequest, fmt.Sprintf("bad timeout %q", req.Timeout)}
		}
		timeout = d
	}
	jobs := make([]sweep.Job, len(req.Specs))
	for i, spec := range req.Specs {
		j, err := s.cfg.Resolver(spec)
		if err != nil {
			return nil, &apiError{http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err)}
		}
		jobs[i] = j
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected++
		return nil, &apiError{http.StatusTooManyRequests, "server is draining"}
	}
	s.seq++
	j := newJob(fmt.Sprintf("j-%06d", s.seq), req.Specs, jobs, timeout)
	select {
	case s.queue <- j:
	default:
		s.rejected++
		return nil, &apiError{http.StatusTooManyRequests,
			fmt.Sprintf("job queue full (%d queued)", cap(s.queue))}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	return j, nil
}

// evictLocked drops the oldest terminal jobs beyond the retention cap.
// Caller holds s.mu.
func (s *Server) evictLocked() {
	excess := len(s.order) - s.cfg.MaxJobsRetained
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && s.jobs[id].terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// lookup returns a retained job by id.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list snapshots every retained job's status in submission order.
func (s *Server) list() []jobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]jobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown stops accepting jobs and waits for every already-accepted job to
// finish. If ctx is cancelled first, the in-flight sweep is cancelled
// between cells and the remaining queue drains as cancelled jobs; Shutdown
// then returns ctx.Err(). Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.draining = true
	close(s.queue) // submit never sends once draining is set
	s.mu.Unlock()
	s.log.Info("draining", "queued", len(s.queue))

	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		s.cancel() // abort the running sweep between cells
		<-s.done
		return ctx.Err()
	}
}

// apiError is a status code plus a message for the JSON error body.
type apiError struct {
	code int
	msg  string
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	// Specs are the simulation cells, validated against the resolver
	// registry; results come back in this order.
	Specs []sweep.Spec `json:"specs"`
	// Timeout, when set (Go duration string, e.g. "2m"), bounds the job's
	// execution; on expiry unfinished cells are cancelled and the job ends
	// in state "canceled".
	Timeout string `json:"timeout,omitempty"`
}

// submitResponse is the 202 body.
type submitResponse struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cells     int    `json:"cells"`
	StatusURL string `json:"status_url"`
	StreamURL string `json:"stream_url"`
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}
