package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// now is the benchmark's only clock read. Wall-clock values are timing
// metrics; they never enter a simulated result.
func now() time.Time { return time.Now() } //wnvet:allow benchmark timing only

func seconds(since time.Time) float64 { return now().Sub(since).Seconds() }

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call. Op is the operation (cell or campaign) the
// call served; Parent is the span that caused it (0 for roots).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Work counts what the call did: instructions executed, kill points
	// injected. Zero when the call has no natural unit.
	Work uint64 `json:"work,omitempty"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced mode: begin returns an inert handle and reads no clock.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: now()} }

type handle struct {
	r *recorder // nil: untraced
	s span
}

// begin opens a span under parent (0 for a root) for operation op.
func (r *recorder) begin(name string, parent, op int64) handle {
	if r == nil {
		return handle{}
	}
	return handle{r: r, s: span{
		ID: r.ids.Add(1), Parent: parent, Op: op, Name: name,
		Start: int64(now().Sub(r.t0)),
	}}
}

// id is the span's identifier, for use as a child's parent (0 untraced).
func (h handle) id() int64 { return h.s.ID }

// end closes the span, recording work done inside it.
func (h handle) end(work uint64) {
	if h.r == nil {
		return
	}
	h.s.End = int64(now().Sub(h.r.t0))
	h.s.Work = work
	h.r.mu.Lock()
	h.r.spans = append(h.r.spans, h.s)
	h.r.mu.Unlock()
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	Name  string
	Count int
	Durs  []float64 // ns, per span
	Total float64   // ns
	Self  float64   // ns: duration minus the time child spans cover
	Work  uint64
}

// summarize groups spans by name and computes self times. A span's self
// time is its duration minus the union of its children's intervals.
func (r *recorder) summarize() map[string]*layerStats {
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStats{}
	for _, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStats{Name: s.Name}
			out[s.Name] = st
		}
		st.Count++
		st.Durs = append(st.Durs, s.dur())
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, children[s.ID])
		st.Work += s.Work
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return float64(total)
}

// write dumps every span, in start order, as one JSON document.
func (r *recorder) write(path string) error {
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
