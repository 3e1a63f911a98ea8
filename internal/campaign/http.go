package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the service's HTTP/JSON API:
//
//	POST   /campaigns             submit a Spec (at most 1 MiB, no unknown
//	                              fields), returns the campaign view
//	GET    /campaigns             list campaigns
//	GET    /campaigns/{id}        one campaign (status, attempts, error)
//	GET    /campaigns/{id}/result campaign view including the result
//	GET    /campaigns/{id}/events incremental event stream (see below)
//	DELETE /campaigns/{id}        cancel (checkpoint retained)
//
// The events endpoint streams newline-delimited JSON events starting
// at ?from=N (default 0), flushing each batch as it happens, until
// the campaign reaches a terminal status — an incremental stats feed
// a client can tail during a long campaign.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleGet)
	mux.HandleFunc("GET /campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /campaigns/{id}", s.handleCancel)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxSpecBytes bounds a POST /campaigns body.
const maxSpecBytes = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("bad spec: %w", err))
		return
	}
	view, err := s.Submit(spec)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.Get(r.PathValue("id"), false)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	view, err := s.Get(r.PathValue("id"), true)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if !view.Status.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("campaign %s is still %s", view.ID, view.Status))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "cancel requested"})
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from %q", q))
			return
		}
		from = n
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	ctx := r.Context()
	for {
		evs, terminal, err := s.EventsSince(ctx, id, from, true)
		if err != nil {
			if from == 0 && ctx.Err() == nil {
				writeError(w, http.StatusNotFound, err)
			}
			return
		}
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return // client went away
			}
			from = ev.Seq + 1
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal && len(evs) == 0 {
			return
		}
		if terminal {
			// Drain any events appended while writing, then stop.
			if evs, _, err := s.EventsSince(ctx, id, from, false); err == nil && len(evs) == 0 {
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
	}
}
