// Package client is the typed client for ipcpd, the resident analysis
// server (see package ipcp/internal/server). It speaks the server's
// JSON wire protocol and maps non-2xx answers to *StatusError so
// callers can distinguish overload (429), draining (503), and deadline
// expiry (504) from real failures.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ipcp/internal/server"
)

// StatusError is a non-2xx server answer.
type StatusError struct {
	// Code is the HTTP status code.
	Code int

	// Message is the server's error text.
	Message string

	// RetryAfter is the server's requested backoff on a 429, zero
	// otherwise.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("ipcpd: %s (HTTP %d)", e.Message, e.Code)
}

// Busy reports whether the error is the server shedding load (a retry
// after e.RetryAfter is reasonable).
func (e *StatusError) Busy() bool { return e.Code == http.StatusTooManyRequests }

// Client talks to one ipcpd server. It is safe for concurrent use.
type Client struct {
	base      string
	http      *http.Client
	retryBusy time.Duration
}

// New returns a client for the server at addr ("host:port" or a full
// http:// URL).
func New(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{base: strings.TrimSuffix(addr, "/"), http: &http.Client{}}
}

// RetryBusy makes the client retry a request once when the server
// sheds it with 429, sleeping for the server's Retry-After (or
// defaultBusyDelay when the header is missing), clamped to cap. Off by
// default — callers that need to observe overload directly (load
// tests, admission-control probes) keep the raw 429. cmd/ipcp -server
// and the fleet router's worker dispatch both turn it on. Returns the
// client for chaining.
func (c *Client) RetryBusy(cap time.Duration) *Client {
	c.retryBusy = cap
	return c
}

// defaultBusyDelay is the backoff used for a 429 without a Retry-After
// header.
const defaultBusyDelay = 100 * time.Millisecond

// Analyze posts req to /v1/analyze.
func (c *Client) Analyze(ctx context.Context, req server.AnalyzeRequest) (*server.AnalyzeResponse, error) {
	var resp server.AnalyzeResponse
	if err := c.post(ctx, "/v1/analyze", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Transform posts req to /v1/transform.
func (c *Client) Transform(ctx context.Context, req server.TransformRequest) (*server.TransformResponse, error) {
	var resp server.TransformResponse
	if err := c.post(ctx, "/v1/transform", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Batch posts req to /v1/batch and collects the NDJSON result stream
// into a slice ordered by item index (one entry per request item). A
// nil error means the batch ran; individual items may still have
// failed — check each result's OK()/Status (partial-failure
// semantics).
func (c *Client) Batch(ctx context.Context, req server.BatchRequest) ([]server.BatchItemResult, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("ipcpd client: %w", err)
	}
	res, err := c.Do(ctx, http.MethodPost, "/v1/batch", data)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	results := make([]server.BatchItemResult, len(req.Items))
	seen := make([]bool, len(req.Items))
	dec := json.NewDecoder(res.Body)
	//lint:ignore cancelpoll bounded by the response body: Decode hits io.EOF, and the request context aborts the body reads
	for {
		var item server.BatchItemResult
		if err := dec.Decode(&item); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("ipcpd client: decode batch stream: %w", err)
		}
		if item.Index < 0 || item.Index >= len(results) {
			return nil, fmt.Errorf("ipcpd client: batch stream returned index %d for a %d-item request", item.Index, len(req.Items))
		}
		results[item.Index] = item
		seen[item.Index] = true
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("ipcpd client: batch stream ended without a result for item %d", i)
		}
	}
	return results, nil
}

// Matrix fetches the full configuration sweep over the named generated
// program (scale 0 = the server's default).
func (c *Client) Matrix(ctx context.Context, program string, scale int) (*server.MatrixResponse, error) {
	q := url.Values{"program": {program}}
	if scale > 0 {
		q.Set("scale", strconv.Itoa(scale))
	}
	var resp server.MatrixResponse
	if err := c.get(ctx, "/v1/matrix?"+q.Encode(), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ready polls /readyz: nil when the server is accepting work.
func (c *Client) Ready(ctx context.Context) error {
	var ignored string
	return c.roundTrip(ctx, http.MethodGet, "/readyz", nil, &ignored)
}

// Metrics fetches the /metrics text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	var text string
	err := c.roundTrip(ctx, http.MethodGet, "/metrics", nil, &text)
	return text, err
}

func (c *Client) post(ctx context.Context, path string, req, resp any) error {
	return c.roundTrip(ctx, http.MethodPost, path, req, resp)
}

func (c *Client) get(ctx context.Context, path string, resp any) error {
	return c.roundTrip(ctx, http.MethodGet, path, nil, resp)
}

// roundTrip performs one request. A non-nil body is sent as JSON. The
// answer decodes into resp — into the string itself when resp is a
// *string (the text endpoints), as JSON otherwise. With RetryBusy set
// a 429 answer is retried once after the server's requested backoff.
func (c *Client) roundTrip(ctx context.Context, method, path string, body, resp any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return fmt.Errorf("ipcpd client: %w", err)
		}
	}
	res, err := c.Do(ctx, method, path, data)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if text, ok := resp.(*string); ok {
		raw, err := io.ReadAll(res.Body)
		if err != nil {
			return fmt.Errorf("ipcpd client: %w", err)
		}
		*text = string(raw)
		return nil
	}
	if err := json.NewDecoder(res.Body).Decode(resp); err != nil {
		return fmt.Errorf("ipcpd client: decode response: %w", err)
	}
	return nil
}

// Do sends one request, with body (when non-nil) as JSON, and returns
// the 2xx response for the caller to read and close. A 429 is retried
// once when RetryBusy is configured. Every non-2xx answer (including
// an unretried or twice-shed 429) comes back as *StatusError. The
// typed calls build on it; a fleet edge relays worker answers with it.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, fmt.Errorf("ipcpd client: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		res, err := c.http.Do(req)
		if err != nil {
			return nil, fmt.Errorf("ipcpd client: %w", err)
		}
		if res.StatusCode/100 == 2 {
			return res, nil
		}
		serr := statusError(res)
		res.Body.Close()
		var se *StatusError
		if attempt == 0 && c.retryBusy > 0 && errors.As(serr, &se) && se.Busy() {
			delay := se.RetryAfter
			if delay <= 0 {
				delay = defaultBusyDelay
			}
			if delay > c.retryBusy {
				delay = c.retryBusy
			}
			t := time.NewTimer(delay)
			select {
			case <-t.C:
				continue
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
		return nil, serr
	}
}

// statusError builds the *StatusError for a non-2xx response, reading
// the JSON error body when there is one.
func statusError(res *http.Response) error {
	e := &StatusError{Code: res.StatusCode, Message: res.Status}
	var body server.ErrorResponse
	if data, err := io.ReadAll(io.LimitReader(res.Body, 1<<20)); err == nil {
		if json.Unmarshal(data, &body) == nil && body.Error != "" {
			e.Message = body.Error
		} else if text := strings.TrimSpace(string(data)); text != "" {
			e.Message = text
		}
	}
	if s := res.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			e.RetryAfter = time.Duration(n) * time.Second
		}
	}
	return e
}
