package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// maxBodyBytes bounds an ingest request body; batches are bounded in events
// anyway, this just stops a hostile body before it is buffered.
const maxBodyBytes = 8 << 20

// Handler returns the service's HTTP mux:
//
//	POST /ingest          NDJSON event batch → 202, 400, 429 (+Retry-After), 503
//	POST /step            {"slots":n} advance on demand → {"stepped":n}
//	POST /policy/reload   {"path":p} validate + hot-swap → 200, 409, 422
//	GET  /decisions       ?slot=k (default: latest) → decisions of one slot
//	GET  /decisions/digest  canonical decision-stream digest so far
//	GET  /healthz         liveness + clock + queue depth
//	GET  /metrics         telemetry snapshot (text, or ?format=json)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /step", s.handleStep)
	mux.HandleFunc("POST /policy/reload", s.handleReload)
	mux.HandleFunc("GET /decisions", s.handleDecisions)
	mux.HandleFunc("GET /decisions/digest", s.handleDigest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// ingestResponse acknowledges an admitted batch.
type ingestResponse struct {
	Accepted  int `json:"accepted"`
	Watermark int `json:"watermark_min"`
	Slot      int `json:"slot"`
}

// maxPresizeBytes bounds the buffer a declared Content-Length reserves
// before any body byte arrives. Real batches are far smaller (a full
// 1,024-event batch is about 150 KB), and a client that declares a large
// body but sends little cannot pin more than this per request.
const maxPresizeBytes = 1 << 20

// readBody reads at most maxBodyBytes+1 bytes of the request body, so an
// oversized body shows as one byte too many. The buffer starts at the
// declared Content-Length plus the bytes.MinRead of slack that ReadFrom
// keeps free, so a body of known length up to maxPresizeBytes is read into
// one allocation instead of io.ReadAll's doubling.
func readBody(r *http.Request) ([]byte, error) {
	size := min(max(r.ContentLength, 0), maxPresizeBytes)
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(io.LimitReader(r.Body, maxBodyBytes+1))
	return buf.Bytes(), err
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxBodyBytes {
		s.met.badBatches.Inc()
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: body exceeds %d bytes", maxBodyBytes))
		return
	}
	events, err := ParseBatch(body, s.cfg.MaxBatch)
	if err != nil {
		s.met.badBatches.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	switch err := s.Enqueue(events); {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrBacklogged):
		w.Header().Set("Retry-After", s.retryAfter())
		writeError(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusAccepted, ingestResponse{
			Accepted:  len(events),
			Watermark: s.Watermark(),
			Slot:      s.Slot(),
		})
	}
}

// retryAfter estimates how long a rejected producer should back off. The
// queue drains at event-absorption speed, which is fast relative to any
// wall-clock second; one second is the honest floor HTTP's integer header
// allows and what load generators key off.
func (s *Server) retryAfter() string { return "1" }

type stepRequest struct {
	Slots int `json:"slots"`
}

type stepResponse struct {
	Stepped int  `json:"stepped"`
	Slot    int  `json:"slot"`
	NowMin  int  `json:"now_min"`
	Done    bool `json:"done"`
}

// maxControlBytes bounds a /step or /policy/reload request body.
const maxControlBytes = 1 << 16

// decodeControl reads a /step or /policy/reload body into v as one JSON
// object, strictly: an unknown key (a mistyped "slot" for "slots") and
// anything but JSON whitespace after the object are errors, so a request
// the service would misread is refused rather than half-applied. An empty
// body is allowed when emptyOK and leaves v unchanged.
func decodeControl(r *http.Request, v any, emptyOK bool) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxControlBytes+1))
	if err != nil {
		return err
	}
	if len(body) > maxControlBytes {
		return fmt.Errorf("serve: request body exceeds %d bytes", maxControlBytes)
	}
	if len(body) == 0 && emptyOK {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	for _, c := range body[dec.InputOffset():] {
		switch c {
		case ' ', '\t', '\r', '\n':
		default:
			return fmt.Errorf("serve: data after the request object")
		}
	}
	return nil
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	var req stepRequest
	if err := decodeControl(r, &req, true); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	stepped, err := s.StepSlots(r.Context(), req.Slots)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, stepResponse{
		Stepped: stepped, Slot: s.Slot(), NowMin: s.Now(), Done: s.Done(),
	})
}

type reloadRequest struct {
	Path string `json:"path"`
}

type reloadResponse struct {
	Policy string `json:"policy"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Reload == nil {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: hot swap not configured"))
		return
	}
	var req reloadRequest
	if err := decodeControl(r, &req, false); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reload needs a checkpoint path"))
		return
	}
	switch err := s.Reload(r.Context(), req.Path); {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		// Validation failed: the old policy keeps serving (fail closed).
		writeError(w, http.StatusUnprocessableEntity, err)
	default:
		writeJSON(w, http.StatusOK, reloadResponse{Policy: s.PolicyName()})
	}
}

// decisionJSON is the wire form of one displacement decision.
type decisionJSON struct {
	Slot   int    `json:"slot"`
	Taxi   int    `json:"taxi"`
	Region int    `json:"region"`
	Action string `json:"action"`
	Index  int    `json:"action_index"` // -1 for an action outside the action space
}

type decisionsResponse struct {
	Slot      int            `json:"slot"`
	Decisions []decisionJSON `json:"decisions"`
}

func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	slot := -1
	if q := r.URL.Query().Get("slot"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad slot %q", q))
			return
		}
		slot = n
	}
	ds, slot, ok := s.Decisions(slot)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no decisions retained for slot %d", slot))
		return
	}
	out := decisionsResponse{Slot: slot, Decisions: make([]decisionJSON, len(ds))}
	for i, d := range ds {
		out.Decisions[i] = decisionJSON{
			Slot: d.Slot, Taxi: d.Taxi, Region: d.Region,
			Action: d.Action.String(), Index: actionIndex(d.Action),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

type digestResponse struct {
	Slots     int    `json:"slots"`
	Decisions int    `json:"decisions"`
	Digest    string `json:"digest"`
}

func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	slots, decisions, digest := s.DigestState()
	writeJSON(w, http.StatusOK, digestResponse{Slots: slots, Decisions: decisions, Digest: digest})
}

// healthzResponse is the liveness surface: the engine clock, feed watermark,
// queue depth, and lifecycle phase ("ok", "draining", "done").
type healthzResponse struct {
	Status     string `json:"status"`
	Policy     string `json:"policy"`
	Slot       int    `json:"slot"`
	NowMin     int    `json:"now_min"`
	HorizonMin int    `json:"horizon_min"`
	Watermark  int    `json:"watermark_min"`
	QueueDepth int    `json:"queue_depth"`
	Done       bool   `json:"done"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Done() {
		status = "done"
	}
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:     status,
		Policy:     s.PolicyName(),
		Slot:       s.Slot(),
		NowMin:     s.Now(),
		HorizonMin: s.horizonMin,
		Watermark:  s.Watermark(),
		QueueDepth: s.QueueDepth(),
		Done:       s.Done(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		data, err := snap.JSON()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, snap.Text())
}
