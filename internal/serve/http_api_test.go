package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
)

// The HTTP API battery: every endpoint's documented statuses and payload
// shapes, exercised through the same mux the binary mounts, plus the client
// wrappers (Digest, PostBatch's 429 leg) the stream tooling uses.

func apiServer(t *testing.T, reload ReloadFunc) (*Server, *httptest.Server) {
	t.Helper()
	const seed = 41
	city := microCity(t, seed)
	env := sim.New(city, sim.DefaultOptions(1), seed)
	srv, err := New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: seed, Reload: reload, History: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPStepAndDecisions(t *testing.T) {
	srv, ts := apiServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/step", `{"slots":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/step: %s: %s", resp.Status, body)
	}
	var step stepResponse
	if err := json.Unmarshal(body, &step); err != nil {
		t.Fatal(err)
	}
	if step.Stepped != 3 || step.Slot != 3 || step.Done {
		t.Fatalf("/step answered %+v, want stepped=3 slot=3 done=false", step)
	}
	// Empty body steps one slot.
	if resp, body := postJSON(t, ts.URL+"/step", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("/step with empty body: %s: %s", resp.Status, body)
	}
	// Malformed body is a 400.
	if resp, _ := postJSON(t, ts.URL+"/step", `{"slots":`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/step with bad body: %s, want 400", resp.Status)
	}

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	resp, body = get("/decisions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/decisions: %s: %s", resp.Status, body)
	}
	var latest decisionsResponse
	if err := json.Unmarshal(body, &latest); err != nil {
		t.Fatal(err)
	}
	if latest.Slot != 3 || len(latest.Decisions) == 0 {
		t.Fatalf("/decisions answered slot %d with %d decisions, want slot 3 non-empty", latest.Slot, len(latest.Decisions))
	}
	for _, d := range latest.Decisions {
		if d.Action == "" || d.Slot != latest.Slot {
			t.Fatalf("malformed decision %+v", d)
		}
	}
	if resp, _ = get("/decisions?slot=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/decisions?slot=1: %s, want 200 inside retained window", resp.Status)
	}
	if resp, _ = get("/decisions?slot=99"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/decisions?slot=99: %s, want 404 for an unstepped slot", resp.Status)
	}
	if resp, _ = get("/decisions?slot=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/decisions?slot=banana: %s, want 400", resp.Status)
	}
	if resp, _ = get("/decisions?slot=999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/decisions far future: %s, want 404", resp.Status)
	}

	resp, body = get("/decisions/digest")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/decisions/digest: %s", resp.Status)
	}
	var dig digestResponse
	if err := json.Unmarshal(body, &dig); err != nil {
		t.Fatal(err)
	}
	wantSlots, wantDecs, wantDigest := srv.DigestState()
	if dig.Slots != wantSlots || dig.Decisions != wantDecs || dig.Digest != wantDigest {
		t.Fatalf("/decisions/digest %+v, server state (%d,%d,%s)", dig, wantSlots, wantDecs, wantDigest)
	}

	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "serve.slots") {
		t.Fatalf("/metrics: %s: %s", resp.Status, body)
	}
	resp, body = get("/metrics?format=json")
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Fatalf("/metrics?format=json: %s: %s", resp.Status, body)
	}
}

func TestHTTPHealthzLifecycle(t *testing.T) {
	srv, ts := apiServer(t, nil)
	client := &Client{URL: ts.URL}
	ctx := context.Background()
	var h healthzResponse
	if err := client.getJSON(ctx, "/healthz", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Slot != 0 || h.Done {
		t.Fatalf("fresh healthz = %q slot=%d done=%v, want ok/0/false", h.Status, h.Slot, h.Done)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := client.getJSON(ctx, "/healthz", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("healthz after drain = %q, want draining", h.Status)
	}
	// /step during drain is a 503.
	if resp, _ := postJSON(t, ts.URL+"/step", `{"slots":1}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/step during drain: %s, want 503", resp.Status)
	}
}

func TestHTTPReload(t *testing.T) {
	const seed = 41
	dir := t.TempDir()
	good := writeFairMoveCheckpoint(t, dir, "good.fmck", 0.6, seed)
	srv, ts := apiServer(t, fairmoveReload(0.6, seed))

	// Bad request shapes first.
	if resp, _ := postJSON(t, ts.URL+"/policy/reload", `{`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed reload body: %s, want 400", resp.Status)
	}
	if resp, _ := postJSON(t, ts.URL+"/policy/reload", `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty path: %s, want 400", resp.Status)
	}
	// Validation failure: 422, old policy kept.
	if resp, _ := postJSON(t, ts.URL+"/policy/reload", fmt.Sprintf(`{"path":%q}`, dir+"/missing.fmck")); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("missing checkpoint: %s, want 422", resp.Status)
	}
	if got := srv.PolicyName(); got != "GT" {
		t.Fatalf("failed HTTP reload replaced the policy: %q", got)
	}
	// Success: 200 with the new policy name.
	resp, body := postJSON(t, ts.URL+"/policy/reload", fmt.Sprintf(`{"path":%q}`, good))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid reload: %s: %s", resp.Status, body)
	}
	var rr reloadResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Policy != "FairMove" {
		t.Fatalf("reload answered policy %q, want FairMove", rr.Policy)
	}
	// Reload during drain: 409.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, ts.URL+"/policy/reload", fmt.Sprintf(`{"path":%q}`, good)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("reload during drain: %s, want 409", resp.Status)
	}
}

// TestHTTPReloadNotConfigured: without a ReloadFunc the endpoint answers 405.
func TestHTTPReloadNotConfigured(t *testing.T) {
	_, ts := apiServer(t, nil)
	if resp, _ := postJSON(t, ts.URL+"/policy/reload", `{"path":"x"}`); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("reload without ReloadFunc: %s, want 405", resp.Status)
	}
}

// TestClientBackpressureRetry: PostBatch surfaces the 429 + Retry-After leg
// and Stream absorbs it without losing the batch.
func TestClientBackpressureRetry(t *testing.T) {
	const seed = 43
	city := microCity(t, seed)
	env := sim.New(city, sim.DefaultOptions(1), seed)
	srv, err := New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: seed, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the queue stays full, so the second batch must 429.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{URL: ts.URL, BatchSize: 4, MaxRetries: 2}
	ctx := context.Background()
	if _, bp, err := client.PostBatch(ctx, []Event{gpsAt(1), gpsAt(2), gpsAt(3), gpsAt(4)}); err != nil || bp {
		t.Fatalf("first batch: backpressured=%v err=%v", bp, err)
	}
	after, bp, err := client.PostBatch(ctx, []Event{gpsAt(5)})
	if err != nil || !bp {
		t.Fatalf("second batch into a full queue: backpressured=%v err=%v", bp, err)
	}
	if after <= 0 {
		t.Fatalf("429 Retry-After hint = %v, want positive", after)
	}
	// Stream against the wedged queue exhausts its bounded retries.
	if _, err := client.Stream(ctx, []Event{gpsAt(6)}, 0); err == nil {
		t.Fatal("Stream against a permanently full queue must fail after MaxRetries")
	}
	// Once the driver runs, the same stream goes through (paced, to cover
	// the rps leg of Stream).
	srv.Start()
	st, err := client.Stream(ctx, []Event{gpsAt(6), gpsAt(7)}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 2 {
		t.Fatalf("streamed %d events, want 2", st.Events)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSlotEveryTicker: SlotEvery advances slots on the wall clock with no
// feed and no /step calls.
func TestSlotEveryTicker(t *testing.T) {
	const seed = 44
	city := microCity(t, seed)
	env := sim.New(city, sim.DefaultOptions(1), seed)
	srv, err := New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: seed, SlotEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Slot() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("ticker advanced only %d slots in 10s", srv.Slot())
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPIngestTrailingData: a line with anything but whitespace after its
// event object fails the batch with 400, a stray closing delimiter included,
// and the watermark does not move.
func TestHTTPIngestTrailingData(t *testing.T) {
	srv, ts := apiServer(t, nil)
	for _, body := range []string{
		`{"kind":"gps","time_min":1}}`,
		`{"kind":"gps","time_min":1}]`,
		`{"kind":"gps","time_min":1} }`,
		`{"kind":"gps","time_min":1} x`,
	} {
		if resp, msg := postJSON(t, ts.URL+"/ingest", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("ingest %q: %s: %s, want 400", body, resp.Status, msg)
		}
	}
	if w := srv.Watermark(); w != -1 {
		t.Fatalf("watermark %d after rejected batches, want -1", w)
	}
	if resp, msg := postJSON(t, ts.URL+"/ingest", "{\"kind\":\"gps\",\"time_min\":1} \t\r\n"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest with trailing whitespace: %s: %s, want 202", resp.Status, msg)
	}
}

// TestHTTPControlBodiesStrict: /step and /policy/reload refuse an unknown
// key and anything after the request object with a 400, and neither steps
// the service nor reaches the reload hook; an empty /step body and
// trailing whitespace stay valid.
func TestHTTPControlBodiesStrict(t *testing.T) {
	srv, ts := apiServer(t, func(path string) (policy.Policy, error) {
		t.Errorf("reload hook reached with path %q", path)
		return nil, fmt.Errorf("unexpected reload")
	})
	for _, body := range []string{`{"slot":3}`, `{"slots":2} x`, `{"slots":2}}`, `{"slots":2}{}`} {
		if resp, msg := postJSON(t, ts.URL+"/step", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/step %q: %s: %s, want 400", body, resp.Status, msg)
		}
	}
	if got := srv.Slot(); got != 0 {
		t.Fatalf("rejected /step bodies advanced the service to slot %d", got)
	}
	for _, body := range []string{`{"path":"p","extra":1}`, `{"path":"p"} x`} {
		if resp, msg := postJSON(t, ts.URL+"/policy/reload", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/policy/reload %q: %s: %s, want 400", body, resp.Status, msg)
		}
	}
	for _, body := range []string{"", "{\"slots\":2} \t\r\n"} {
		if resp, msg := postJSON(t, ts.URL+"/step", body); resp.StatusCode != http.StatusOK {
			t.Errorf("/step %q: %s: %s, want 200", body, resp.Status, msg)
		}
	}
	if got := srv.Slot(); got != 3 {
		t.Fatalf("slot %d after an empty and a two-slot /step, want 3", got)
	}
	if resp, msg := postJSON(t, ts.URL+"/step", `{"slots":1}`+strings.Repeat(" ", maxControlBytes)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/step over %d bytes: %s: %s, want 400", maxControlBytes, resp.Status, msg)
	}
}

// TestHTTPIngestBodyLimit: a body one byte over maxBodyBytes answers 413
// whether its length is declared or streamed, a body of exactly
// maxBodyBytes is admitted, and a declared length that understates the body
// does not truncate it.
func TestHTTPIngestBodyLimit(t *testing.T) {
	srv, _ := apiServer(t, nil)
	mux := srv.Handler()
	// body returns n bytes: blank padding, then one event on the last line.
	body := func(n int) []byte {
		line := `{"kind":"gps","time_min":1}`
		b := bytes.Repeat([]byte{' '}, n)
		copy(b[n-len(line):], line)
		return b
	}
	for _, tc := range []struct {
		name     string
		n        int
		streamed bool
		declared int64 // overrides Content-Length when positive
		want     int
	}{
		{"declared over", maxBodyBytes + 1, false, 0, http.StatusRequestEntityTooLarge},
		{"streamed over", maxBodyBytes + 1, true, 0, http.StatusRequestEntityTooLarge},
		{"declared at limit", maxBodyBytes, false, 0, http.StatusAccepted},
		{"streamed at limit", maxBodyBytes, true, 0, http.StatusAccepted},
		{"understated length", 4096, false, 10, http.StatusAccepted},
	} {
		var r io.Reader = bytes.NewReader(body(tc.n))
		if tc.streamed {
			r = io.MultiReader(r)
		}
		req := httptest.NewRequest(http.MethodPost, "/ingest", r)
		if tc.declared > 0 {
			req.ContentLength = tc.declared
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, rec.Code, rec.Body.Bytes(), tc.want)
		}
	}
}
