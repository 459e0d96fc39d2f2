package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// postTimeout bounds one POST, so a wedged service fails the run instead of
// hanging it.
const postTimeout = 10 * time.Second

// sendResult is one POST of the open-loop generator. Latency counts from
// due, the time the schedule meant to send it, so a stall that delays later
// sends is charged to them too.
type sendResult struct {
	due, start, done time.Time
	status           int
	err              error
}

func (r sendResult) latency() time.Duration { return r.done.Sub(r.due) }
func (r sendResult) late() time.Duration    { return r.start.Sub(r.due) }

// openLoop posts bodies to url on a fixed schedule: body i is due at
// t0 + i/rate whatever happened to earlier ones. Taxis report independently
// of the service, so the generator does not wait for replies before its
// schedule; it spreads the bodies round-robin over conns keep-alive
// connections, each sending in order, so at most conns requests are in
// flight. onDone, if not nil, is called with each body's index once its
// reply is in. openLoop returns when every body has been answered or ctx
// ends.
func openLoop(ctx context.Context, url string, bodies [][]byte, rate float64, conns int, t0 time.Time, onDone func(int)) []sendResult {
	res := make([]sendResult, len(bodies))
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		client := &http.Client{Transport: tr, Timeout: postTimeout}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer tr.CloseIdleConnections()
			for i := c; i < len(bodies); i += conns {
				due := t0.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				res[i] = post(ctx, client, url, bodies[i], due)
				if onDone != nil {
					onDone(i)
				}
			}
		}(c)
	}
	wg.Wait()
	return res
}

// post sends one NDJSON body and drains the reply.
func post(ctx context.Context, client *http.Client, url string, body []byte, due time.Time) sendResult {
	r := sendResult{due: due, start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		r.err, r.done = err, time.Now()
		return r
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		r.err, r.done = err, time.Now()
		return r
	}
	_, _ = io.Copy(io.Discard, resp.Body) // the reply is a small JSON ack; only the status matters
	resp.Body.Close()
	r.status, r.done = resp.StatusCode, time.Now()
	return r
}
