package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fieldstudy"
)

// TestHTTPFlow drives the full JSON API end to end: submit, list,
// stream events to terminality, fetch the result, and cancel.
func TestHTTPFlow(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s := NewService(t.TempDir())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Submit a fieldstudy campaign.
	spec, _ := json.Marshal(Spec{Kind: "fieldstudy", Seed: 1, Workers: 2, Fleet: testFleet()})
	resp, err := http.Post(srv.URL+"/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var view View
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Stream events until the campaign finishes; the stream must carry
	// progress and end at a terminal event.
	resp, err = http.Get(srv.URL + "/campaigns/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	resp.Body.Close()
	joined := strings.Join(types, ",")
	if !strings.Contains(joined, "submitted") || !strings.Contains(joined, "progress") || !strings.Contains(joined, "done") {
		t.Fatalf("event stream %v missing lifecycle or progress", types)
	}

	// Result endpoint returns the terminal view with the payload.
	resp, err = http.Get(srv.URL + "/campaigns/" + view.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	var final View
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final.Status != StatusDone || len(final.Result) == 0 {
		t.Fatalf("final view %+v lacks result", final)
	}
	var classes []fieldstudy.ClassStats
	if err := json.Unmarshal(final.Result, &classes); err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Fatalf("%d classes in result, want 2", len(classes))
	}

	// List shows the campaign.
	resp, err = http.Get(srv.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []View
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != view.ID {
		t.Fatalf("list = %+v", list)
	}

	// Submit a slow campaign and cancel it over HTTP.
	faultinject.Arm(fieldstudy.FirePoint, faultinject.Plan{Kind: faultinject.Delay, Delay: 50 * time.Millisecond})
	resp, err = http.Post(srv.URL+"/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var slow View
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/campaigns/"+slow.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	resp.Body.Close()
	sv := waitTerminal(t, s, slow.ID)
	if sv.Status != StatusCanceled && sv.Status != StatusDone {
		t.Fatalf("cancelled campaign status=%s", sv.Status)
	}

	// Errors: unknown campaign and bad spec.
	resp, err = http.Get(srv.URL + "/campaigns/c9999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(`{"kind":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestHTTPResultBeforeTerminalConflicts pins the result endpoint's
// not-done-yet behavior.
func TestHTTPResultBeforeTerminalConflicts(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s := NewService(t.TempDir())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	faultinject.Arm(fieldstudy.FirePoint, faultinject.Plan{Kind: faultinject.Delay, Delay: 50 * time.Millisecond})
	v, err := s.Submit(Spec{Kind: "fieldstudy", Seed: 1, Workers: 1, Fleet: testFleet()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/campaigns/%s/result", srv.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result while running: %d, want 409", resp.StatusCode)
	}
	_ = s.Cancel(v.ID)
	waitTerminal(t, s, v.ID)
}

// TestHTTPEventStreamEndsWhenClientLeaves pins the stream handler's
// lifetime to its client: on an idle running campaign, cancelling the
// request must end the handler promptly, not leave it parked until
// some campaign emits another event.
func TestHTTPEventStreamEndsWhenClientLeaves(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s := NewService(t.TempDir())
	h := s.Handler()
	returned := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/events") {
			returned <- struct{}{}
		}
	}))
	defer srv.Close()
	// The first simulated block stalls, so the campaign runs with no
	// new events for the length of the test.
	faultinject.Arm(fieldstudy.FirePoint, faultinject.Plan{Kind: faultinject.Delay, Delay: 3 * time.Second, Times: 1})
	v, err := s.Submit(Spec{Kind: "fieldstudy", Seed: 1, Workers: 1, Fleet: testFleet()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/campaigns/"+v.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !bufio.NewScanner(resp.Body).Scan() {
		t.Fatal("stream carried no first event")
	}
	before, err := s.Get(v.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("events handler still running 1s after its client left")
	}
	after, err := s.Get(v.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if after.Events != before.Events || after.Status.Terminal() {
		t.Fatalf("campaign moved while the stream ended (%d -> %d events, status %s): the handler may have been woken by an event", before.Events, after.Events, after.Status)
	}
	_ = s.Cancel(v.ID)
	waitTerminal(t, s, v.ID)
}

// TestHTTPSubmitRejectsUnknownFields pins strict decoding: a misspelt
// key, or checkpoint_every (the fieldstudy engine derives its
// checkpoint cadence), is a 400, not a silently defaulted field.
func TestHTTPSubmitRejectsUnknownFields(t *testing.T) {
	s := NewService(t.TempDir())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, body := range []string{
		`{"kind":"fieldstudy","seed":1,"max_retry":3}`,
		`{"kind":"fieldstudy","seed":1,"checkpoint_every":4}`,
	} {
		resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("%d campaigns started from a rejected spec", n)
	}
}

// TestHTTPSubmitRejectsOversizeBody pins the body bound: a spec past
// maxSpecBytes is refused before any campaign starts.
func TestHTTPSubmitRejectsOversizeBody(t *testing.T) {
	s := NewService(t.TempDir())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := `{"kind":"fieldstudy","seed":1,"checkpoint":"` + strings.Repeat("a", maxSpecBytes) + `"}`
	resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", resp.StatusCode)
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("%d campaigns started from an oversize body", n)
	}
}
