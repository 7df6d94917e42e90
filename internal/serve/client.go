package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"whatsnext/internal/sweep"
)

// Client runs sweep jobs on a remote wnserved instance. It implements sweep.Runner, so a Protocol configured with it
// ships each study's specs over HTTP instead of simulating locally: submit
// the batch, follow the job's NDJSON stream, and reassemble the per-cell
// result bytes in submission order. The determinism contract guarantees
// those bytes match a local engine's output exactly.
//
// Resilience: with Retries > 0 the client survives the two transient
// failures a loaded or restarting server produces. A shed submission (429)
// is retried after the server's own Retry-After hint; transport errors and
// 5xx responses are retried under capped exponential backoff with a bounded
// jitter. A dropped stream is not fatal either: the client remembers how
// many event lines it has consumed and reconnects with ?cursor=N, so the
// server replays only the events it has not yet seen — the reassembled
// results are unaffected because every event is delivered exactly once
// across reconnects.
type Client struct {
	base string
	hc   *http.Client
	// Timeout, when set, is sent with each submission as the job deadline.
	Timeout time.Duration
	// Retries bounds the retry attempts (beyond the first try) for shed or
	// failed submissions and for dropped streams. 0 preserves the legacy
	// fail-fast behavior.
	Retries int
	// RetryBase and RetryMax shape the capped exponential backoff between
	// attempts; zero selects 200ms and 5s. A 429's Retry-After hint
	// overrides the computed backoff (still capped by RetryMax).
	RetryBase, RetryMax time.Duration
	// JitterCap bounds the random jitter added to each backoff; zero
	// selects 250ms. Jitter only ever shortens the worst case thundering
	// herd, never extends a wait beyond RetryMax+JitterCap.
	JitterCap time.Duration
}

// NewClient targets a wnserved base URL (e.g. "http://localhost:8080").
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// retryDefaults resolves the backoff knobs.
func (c *Client) retryDefaults() (base, max, jitter time.Duration) {
	base, max, jitter = c.RetryBase, c.RetryMax, c.JitterCap
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	if jitter <= 0 {
		jitter = 250 * time.Millisecond
	}
	return base, max, jitter
}

// backoff computes the capped, jittered wait before retry attempt n (0-based).
func (c *Client) backoff(n int, retryAfter time.Duration) time.Duration {
	base, max, jitterCap := c.retryDefaults()
	d := base << uint(n)
	if d > max || d <= 0 {
		d = max
	}
	if retryAfter > 0 {
		d = retryAfter
		if d > max {
			d = max
		}
	}
	j := jitterCap
	if half := d / 2; half < j {
		j = half
	}
	if j > 0 {
		d += time.Duration(rand.Int63n(int64(j) + 1))
	}
	return d
}

// sleep waits for d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Run implements sweep.Runner. Only each job's Spec travels; the server
// reconstructs the Run closures from its resolver registry, so experiments
// outside that registry fail with the server's 400 message.
func (c *Client) Run(jobs []sweep.Job) ([]json.RawMessage, error) {
	ctx := context.Background()
	if len(jobs) == 0 {
		return nil, nil
	}
	specs := make([]sweep.Spec, len(jobs))
	for i, j := range jobs {
		specs[i] = j.Spec
	}
	req := submitRequest{Specs: specs}
	if c.Timeout > 0 {
		req.Timeout = c.Timeout.String()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("serve: encode submission: %w", err)
	}
	id, err := c.submit(ctx, body)
	if err != nil {
		return nil, err
	}
	return c.follow(ctx, id, len(jobs))
}

// submit POSTs the batch, retrying shed (429) and transient (transport,
// 5xx) failures up to Retries times, and returns the accepted job id.
func (c *Client) submit(ctx context.Context, body []byte) (string, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		id, retryAfter, err, permanent := c.submitOnce(ctx, body)
		if err == nil {
			return id, nil
		}
		if permanent || attempt >= c.Retries {
			return "", err
		}
		lastErr = err
		if err := sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
			return "", fmt.Errorf("serve: submit: %w (last attempt: %v)", err, lastErr)
		}
	}
}

// submitOnce performs one submission attempt. permanent marks errors a
// retry cannot fix (4xx other than 429).
func (c *Client) submitOnce(ctx context.Context, body []byte) (id string, retryAfter time.Duration, err error, permanent bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, fmt.Errorf("serve: submit: %w", err), true
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", 0, fmt.Errorf("serve: submit: %w", err), ctx.Err() != nil
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusAccepted:
		var sub submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			return "", 0, fmt.Errorf("serve: decode submission response: %w", err), true
		}
		return sub.ID, 0, nil, false
	case resp.StatusCode == http.StatusTooManyRequests:
		var ra time.Duration
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
			ra = time.Duration(secs) * time.Second
		}
		return "", ra, fmt.Errorf("serve: submit: %s", apiErrorString(resp)), false
	case resp.StatusCode >= 500:
		return "", 0, fmt.Errorf("serve: submit: %s", apiErrorString(resp)), false
	default:
		return "", 0, fmt.Errorf("serve: submit: %s", apiErrorString(resp)), true
	}
}

// follow streams the job and collects its ordered results, resuming a
// dropped stream from the last-seen event cursor instead of failing the
// whole job.
func (c *Client) follow(ctx context.Context, id string, cells int) ([]json.RawMessage, error) {
	results := make([]json.RawMessage, cells)
	cursor := 0
	for attempt := 0; ; {
		before := cursor
		done, err, permanent := c.streamOnce(ctx, id, cells, &cursor, results)
		if cursor > before {
			attempt = 0 // the connection made progress; restart the budget
		}
		if done {
			for i, r := range results {
				if r == nil {
					return nil, fmt.Errorf("serve: job %s: missing result %d", id, i)
				}
			}
			return results, nil
		}
		if permanent || attempt >= c.Retries {
			return nil, err
		}
		attempt++
		if serr := sleep(ctx, c.backoff(attempt-1, 0)); serr != nil {
			return nil, fmt.Errorf("serve: job %s: %w (stream dropped: %v)", id, serr, err)
		}
	}
}

// streamOnce follows one stream connection from *cursor, advancing the
// cursor per consumed event line so a reconnect never re-reads (or misses)
// an event. It returns done=true only after a successful terminal event.
func (c *Client) streamOnce(ctx context.Context, id string, cells int, cursor *int, results []json.RawMessage) (done bool, err error, permanent bool) {
	url := fmt.Sprintf("%s/v1/jobs/%s/stream?cursor=%d", c.base, id, *cursor)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, fmt.Errorf("serve: stream %s: %w", id, err), true
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, fmt.Errorf("serve: stream %s: %w", id, err), ctx.Err() != nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A missing job cannot come back; other statuses may be transient.
		return false, fmt.Errorf("serve: stream %s: %s", id, apiErrorString(resp)),
			resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusBadRequest
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20) // result lines carry whole encoded cells
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return false, fmt.Errorf("serve: job %s: bad stream line %q: %v", id, sc.Text(), err), true
		}
		*cursor++
		switch e.Type {
		case "result":
			if e.Index < 0 || e.Index >= cells {
				return false, fmt.Errorf("serve: job %s: result index %d out of range", id, e.Index), true
			}
			results[e.Index] = e.Result
		case "done":
			if e.State != StateDone {
				return false, fmt.Errorf("serve: job %s %s: %s", id, e.State, e.Error), true
			}
			return true, nil, false
		}
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("serve: job %s: stream: %w", id, err), false
	}
	return false, fmt.Errorf("serve: job %s: stream ended without a terminal event", id), false
}

// apiErrorString extracts the JSON error body (or the status) of a non-2xx
// response, including the Retry-After hint on 429s.
func apiErrorString(resp *http.Response) string {
	msg := resp.Status
	var e errorResponse
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		msg += ": " + e.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		msg += " (retry after " + ra + "s)"
	}
	return msg
}
