package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
)

// histogram is a fixed-bucket Prometheus-style histogram of per-cell wall
// times (seconds). Buckets span the simulator's range: a cache hit is ~0,
// a scaled cell is milliseconds, a paper-scale intermittent cell can take
// seconds.
type histogram struct {
	mu      sync.Mutex
	bounds  []float64
	counts  []int64 // len(bounds)+1; last is +Inf
	sum     float64
	samples int64
}

func newHistogram() *histogram {
	bounds := []float64{0.001, 0.01, 0.1, 1, 10, 60}
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.samples++
}

// handleMetrics renders the engine and server counters in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Metrics()
	s.mu.Lock()
	queued := len(s.queue)
	queueCap := cap(s.queue)
	inflight := 0
	if s.current != nil {
		inflight = 1
	}
	jobsRetained := len(s.jobs)
	submitted := s.seq
	rejected := s.rejected
	draining := 0
	if s.draining {
		draining = 1
	}
	s.mu.Unlock()
	var jobsDone, jobsFailed, jobsCanceled int64
	for _, st := range s.list() {
		switch st.State {
		case StateDone:
			jobsDone++
		case StateFailed:
			jobsFailed++
		case StateCanceled:
			jobsCanceled++
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("wn_sweep_cells_submitted_total", "Simulation cells handed to the engine.", m.Submitted)
	counter("wn_sweep_cells_done_total", "Cells finished (simulated, cached, errored or skipped).", m.Done)
	counter("wn_sweep_cell_errors_total", "Cells whose Run returned an error.", m.Errors)
	counter("wn_sweep_cache_hits_total", "Result-cache hits.", m.CacheHits)
	counter("wn_sweep_cache_misses_total", "Result-cache misses.", m.CacheMisses)
	counter("wn_sweep_cache_evictions_total", "Entries evicted by the bounded memory cache.", m.CacheEvictions)
	counter("wn_sweep_cache_put_errors_total", "Best-effort cache persistence failures.", m.CachePutErrors)
	counter("wn_sweep_sim_cycles_total", "Simulated device cycles.", int64(m.SimCycles))
	fmt.Fprintf(w, "# HELP wn_sweep_sim_wall_seconds_total Wall-clock seconds spent inside Run closures.\n")
	fmt.Fprintf(w, "# TYPE wn_sweep_sim_wall_seconds_total counter\nwn_sweep_sim_wall_seconds_total %g\n",
		m.SimWall.Seconds())
	gauge("wn_sweep_queue_depth", "Cells submitted but not yet started.", m.QueueDepth)

	counter("wn_serve_jobs_submitted_total", "Jobs accepted by POST /v1/jobs.", submitted)
	counter("wn_serve_jobs_rejected_total", "Submissions shed with 429 (queue full or draining).", rejected)
	counter("wn_serve_jobs_done_total", "Jobs finished successfully.", jobsDone)
	counter("wn_serve_jobs_failed_total", "Jobs ending in a cell error.", jobsFailed)
	counter("wn_serve_jobs_canceled_total", "Jobs cancelled by deadline or shutdown.", jobsCanceled)
	gauge("wn_serve_queue_depth", "Jobs accepted but not yet running.", int64(queued))
	gauge("wn_serve_queue_capacity", "Job queue bound.", int64(queueCap))
	gauge("wn_serve_inflight", "Jobs executing right now (0 or 1).", int64(inflight))
	gauge("wn_serve_jobs_retained", "Jobs held for status queries.", int64(jobsRetained))
	gauge("wn_serve_draining", "1 while shutdown is draining the queue.", int64(draining))

	h := s.hist
	h.mu.Lock()
	fmt.Fprintf(w, "# HELP wn_sweep_cell_wall_seconds Per-cell simulation wall time.\n")
	fmt.Fprintf(w, "# TYPE wn_sweep_cell_wall_seconds histogram\n")
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "wn_sweep_cell_wall_seconds_bucket{le=\"%g\"} %d\n", b, cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "wn_sweep_cell_wall_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "wn_sweep_cell_wall_seconds_sum %g\n", h.sum)
	fmt.Fprintf(w, "wn_sweep_cell_wall_seconds_count %d\n", h.samples)
	h.mu.Unlock()
}
