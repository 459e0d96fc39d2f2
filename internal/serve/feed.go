package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// RecordFeed replays ground-truth driver behavior over a private environment
// and records the resulting Table-I-style event stream: one GPS fix per taxi
// per slot (stamped at the slot's closing minute, region centroid plus
// jitter) and one request event per passenger pickup. The feed is
// deterministic in (city, opts, seed) — the recorded feeds the equivalence
// tests and `datagen stream` replay come from here. maxSlots <= 0 records
// the full horizon.
//
// Feeding a server these events drives its watermark through every slot
// boundary: slot k's fixes are stamped at k's end minute, so ingesting them
// releases exactly slot k.
func RecordFeed(city *synth.City, opts sim.Options, seed int64, maxSlots int) []Event {
	env := sim.New(city, opts, seed)
	var slotReqs []Event
	env.SetRecorder(func(ev trace.Event) {
		if ev.Kind == trace.EvPickup {
			slotReqs = append(slotReqs, Event{Kind: KindRequest, TimeMin: ev.TimeMin, Region: ev.Region})
		}
	})
	r := policy.NewRunner(policy.NewGroundTruth(), env, seed)
	jitter := rng.SplitStable(seed, "serve-feed")
	var out []Event
	for !r.Done() && (maxSlots <= 0 || r.Slots() < maxSlots) {
		slotReqs = slotReqs[:0]
		r.StepSlot()
		now := env.Now()
		for _, req := range slotReqs {
			// A pickup can be scheduled minutes into the future (cruise time
			// to the passenger). The feed stamps the request when the slot
			// that matched it closes — the moment the service could actually
			// learn of it — so a maxSlots=k feed's watermark releases exactly
			// k slots and never runs the engine ahead of the recording.
			if req.TimeMin > now {
				req.TimeMin = now
			}
			out = append(out, req)
		}
		for id := range city.Fleet {
			c := city.Partition.Region(env.TaxiRegion(id)).Centroid
			state := env.TaxiState(id)
			speed := 0.0
			switch state {
			case sim.Serving, sim.Relocating, sim.ToStation:
				speed = 30
			case sim.Cruising:
				speed = 12
			}
			out = append(out, Event{
				Kind:      KindGPS,
				TimeMin:   now,
				VehicleID: id,
				Lng:       c.Lng + jitter.Uniform(-0.003, 0.003),
				Lat:       c.Lat + jitter.Uniform(-0.003, 0.003),
				SpeedKmh:  speed,
				Occupied:  state == sim.Serving,
			})
		}
	}
	return out
}

// Client streams event batches into a running dispatch service, honoring its
// backpressure protocol: a 429 response is retried after the server's
// Retry-After hint, so no generated event is ever dropped on the floor.
type Client struct {
	// URL is the service base URL (e.g. "http://127.0.0.1:8080").
	URL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// BatchSize is events per POST (default 256).
	BatchSize int
	// MaxRetries bounds consecutive 429 retries of one batch (default 120)
	// so a wedged server fails the stream instead of hanging it.
	MaxRetries int
}

// StreamStats summarizes one Stream call.
type StreamStats struct {
	Batches  int           // batches accepted
	Events   int           // events accepted
	Rejected int           // 429 responses absorbed (batch retried, not dropped)
	Elapsed  time.Duration // wall-clock of the whole stream
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return 256
}

func (c *Client) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 120
}

// PostBatch posts one NDJSON batch. It returns (retryAfter, true, nil) when
// the server backpressured (429), (0, false, nil) on acceptance, and an
// error on any other outcome.
func (c *Client) PostBatch(ctx context.Context, events []Event) (retryAfter time.Duration, backpressured bool, err error) {
	body, err := EncodeBatch(events)
	if err != nil {
		return 0, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL+"/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, false, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusAccepted:
		return 0, false, nil
	case http.StatusTooManyRequests:
		after := time.Second
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
				after = time.Duration(secs) * time.Second
			}
		}
		return after, true, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, false, fmt.Errorf("serve client: /ingest: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
}

// Stream posts events in batches, pacing to approximately rps events per
// second (rps <= 0 streams as fast as the server admits). Backpressured
// batches are retried after the server's hint — accepted-event accounting
// therefore always matches what the server ingested.
func (c *Client) Stream(ctx context.Context, events []Event, rps float64) (StreamStats, error) {
	start := time.Now()
	var st StreamStats
	size := c.batchSize()
	var interval time.Duration
	if rps > 0 {
		interval = time.Duration(float64(size) / rps * float64(time.Second))
	}
	next := time.Now()
	for len(events) > 0 {
		n := size
		if n > len(events) {
			n = len(events)
		}
		batch := events[:n]
		events = events[n:]
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return st, ctx.Err()
				}
			}
			next = next.Add(interval)
		}
		retries := 0
		for {
			after, backpressured, err := c.PostBatch(ctx, batch)
			if err != nil {
				return st, err
			}
			if !backpressured {
				break
			}
			st.Rejected++
			retries++
			if retries > c.maxRetries() {
				return st, fmt.Errorf("serve client: batch still backpressured after %d retries", retries)
			}
			select {
			case <-time.After(after):
			case <-ctx.Done():
				return st, ctx.Err()
			}
		}
		st.Batches++
		st.Events += n
	}
	st.Elapsed = time.Since(start)
	return st, nil
}

// getJSON decodes a JSON GET endpoint into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("serve client: GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return jsonDecode(resp.Body, out)
}

// Digest fetches the server's decision-stream digest.
func (c *Client) Digest(ctx context.Context) (slots, decisions int, digest string, err error) {
	var resp digestResponse
	if err := c.getJSON(ctx, "/decisions/digest", &resp); err != nil {
		return 0, 0, "", err
	}
	return resp.Slots, resp.Decisions, resp.Digest, nil
}

func jsonDecode(r io.Reader, out any) error {
	data, err := io.ReadAll(io.LimitReader(r, 1<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}
