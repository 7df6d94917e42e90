package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whatsnext/internal/serve"
	"whatsnext/internal/sweep"
)

// jobsOf turns specs into spec-only jobs the way a remote caller would.
func jobsOf(specs []sweep.Spec) []sweep.Job {
	jobs := make([]sweep.Job, len(specs))
	for i, s := range specs {
		jobs[i] = sweep.Job{Spec: s}
	}
	return jobs
}

// TestClientRetries429 fronts a real server with a shedding proxy that 429s
// the first submissions; a client with retries rides it out, a legacy
// client fails fast.
func TestClientRetries429(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Resolver: echoResolver, Workers: 2})

	var sheds atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && sheds.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "shed by test proxy"})
			return
		}
		resp, err := forward(ts.URL, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		copyResponse(w, resp)
	}))
	defer proxy.Close()

	legacy := serve.NewClient(proxy.URL)
	if _, err := legacy.Run(jobsOf(specN(3))); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("legacy client should fail fast on 429, got %v", err)
	}

	sheds.Store(0)
	cl := serve.NewClient(proxy.URL)
	cl.Retries = 3
	cl.RetryBase, cl.RetryMax, cl.JitterCap = time.Millisecond, 5*time.Millisecond, time.Millisecond
	results, err := cl.Run(jobsOf(specN(3)))
	if err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if got := sheds.Load(); got < 3 {
		t.Errorf("proxy saw %d submissions, want >= 3 (2 shed + 1 accepted)", got)
	}
}

// TestClientResumesDroppedStream cuts the first stream connection after two
// event lines; the client must reconnect with ?cursor=2 and still
// reassemble every result byte-identically.
func TestClientResumesDroppedStream(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Resolver: echoResolver, Workers: 1})

	var mu sync.Mutex
	var cursors []string
	var dropped bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			mu.Lock()
			cursors = append(cursors, r.URL.Query().Get("cursor"))
			first := !dropped
			dropped = true
			mu.Unlock()
			if first {
				// Pass through only the first two event lines, then sever.
				resp, err := forward(ts.URL, r)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadGateway)
					return
				}
				defer resp.Body.Close()
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				lines := 0
				buf := make([]byte, 1)
				for lines < 2 {
					if _, err := resp.Body.Read(buf); err != nil {
						return
					}
					w.Write(buf)
					if buf[0] == '\n' {
						lines++
					}
				}
				return // connection closes mid-stream
			}
		}
		resp, err := forward(ts.URL, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		copyResponse(w, resp)
	}))
	defer proxy.Close()

	specs := specN(4)
	local, err := sweep.New(sweep.Options{Workers: 1}).Run(mustResolve(t, specs))
	if err != nil {
		t.Fatal(err)
	}

	cl := serve.NewClient(proxy.URL)
	cl.Retries = 3
	cl.RetryBase, cl.RetryMax, cl.JitterCap = time.Millisecond, 5*time.Millisecond, time.Millisecond
	remote, err := cl.Run(jobsOf(specs))
	if err != nil {
		t.Fatalf("client did not survive the dropped stream: %v", err)
	}
	for i := range local {
		if !bytes.Equal(remote[i], local[i]) {
			t.Errorf("cell %d differs after resume: %s vs %s", i, remote[i], local[i])
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(cursors) < 2 {
		t.Fatalf("expected a reconnect, saw %d stream requests", len(cursors))
	}
	if cursors[0] != "0" {
		t.Errorf("first stream request cursor %q, want 0", cursors[0])
	}
	if cursors[1] != "2" {
		t.Errorf("resumed stream request cursor %q, want 2 (two lines were delivered)", cursors[1])
	}
}

// mustResolve builds echo-resolver jobs for a local reference run.
func mustResolve(t *testing.T, specs []sweep.Spec) []sweep.Job {
	t.Helper()
	jobs := make([]sweep.Job, len(specs))
	for i, s := range specs {
		j, err := echoResolver(s)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	return jobs
}

// forward re-issues a request against base and returns the response.
func forward(base string, r *http.Request) (*http.Response, error) {
	url := base + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequest(r.Method, url, r.Body)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	return http.DefaultTransport.RoundTrip(req)
}

// copyResponse relays a forwarded response to the proxy's client.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			w.Write(buf[:n])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// readAll drains a response body.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
