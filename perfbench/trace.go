package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// The traced run's span recorder. A span wraps one call the benchmark
// makes into a layer, or one callback a layer makes into the
// benchmark's forwarding wrappers (wrap.go). Spans are recorded on
// tracks: track 0 is the benchmark's own goroutine and track 1+ch is
// memory channel ch. Shard workers never share a channel, so each
// track is driven by one goroutine at a time and records without
// locks. A span that opens on an empty channel track is a child of the
// span open on track 0, which is blocked in the fan-out or in the call
// that reached the channel.
//
// Self time is a span's duration minus the time its children cover.
// Children on the span's own track run one after another, so their
// durations add. Children on other tracks add too, except under a
// parallel span (a fan-out across channels), where the busiest track
// covers the span and the sum of all tracks is its busy time.

const (
	maxTracks = 8     // track 0 plus up to 7 channels
	maxDepth  = 64    // deeper nesting is a bug in the benchmark
	maxRaw    = 20000 // spans kept per track
)

// agg accumulates one span name on one track.
type agg struct {
	calls int64 // spans ended, or the count added with add
	total int64 // ns
	self  int64 // ns
	busy  int64 // ns of children on other tracks
}

type openSpan struct {
	name     int
	id       int64
	start    int64
	parallel bool
	parent   *openSpan
	ptrack   int
	pid      int64
	same     int64
	byTrack  [maxTracks]int64
}

type rawSpan struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Track  int    `json:"track"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	base     time.Time
	names    []string
	ids      map[string]int
	counters map[string]bool
	tracks   []*track
}

type track struct {
	tr      *tracer
	id      int
	depth   int
	stack   [maxDepth]openSpan
	seq     int64
	agg     []agg
	raw     []rawSpan
	dropped int64
}

func newTracer(channels int) *tracer {
	if channels+1 > maxTracks {
		panic(fmt.Sprintf("perfbench: %d channels exceed the tracer's %d tracks", channels, maxTracks))
	}
	tr := &tracer{base: time.Now(), ids: map[string]int{}, counters: map[string]bool{}}
	for i := 0; i <= channels; i++ {
		tr.tracks = append(tr.tracks, &track{tr: tr, id: i})
	}
	return tr
}

// id interns a span name. Call it while no span is open on a channel
// track: building a rig or a wrapper is the only place names appear.
func (tr *tracer) id(name string) int {
	if id, ok := tr.ids[name]; ok {
		return id
	}
	id := len(tr.names)
	tr.names = append(tr.names, name)
	tr.ids[name] = id
	for _, t := range tr.tracks {
		t.agg = append(t.agg, agg{})
	}
	return id
}

// counter interns the name of an untimed count (see track.add).
func (tr *tracer) counter(name string) int {
	tr.counters[name] = true
	return tr.id(name)
}

// main returns track 0; channel returns the track of channel ch. Both
// return nil on a nil tracer, and every track method is a no-op on a
// nil track, so untraced code runs the same calls.
func (tr *tracer) main() *track {
	if tr == nil {
		return nil
	}
	return tr.tracks[0]
}

func (tr *tracer) channel(ch int) *track {
	if tr == nil {
		return nil
	}
	return tr.tracks[1+ch]
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// begin opens a span; every begin is matched by end on the same track.
func (t *track) begin(name int) { t.open(name, false) }

// beginParallel opens a span whose children run on several channel
// tracks at once.
func (t *track) beginParallel(name int) { t.open(name, true) }

func (t *track) open(name int, parallel bool) {
	if t == nil {
		return
	}
	if t.depth == maxDepth {
		panic("perfbench: span stack overflow")
	}
	s := &t.stack[t.depth]
	t.seq++
	*s = openSpan{name: name, id: int64(t.id)<<40 | t.seq, parallel: parallel, ptrack: t.id}
	if t.depth > 0 {
		s.parent = &t.stack[t.depth-1]
	} else if t.id != 0 {
		if m := t.tr.tracks[0]; m.depth > 0 {
			s.parent = &m.stack[m.depth-1]
			s.ptrack = 0
		}
	}
	if s.parent != nil {
		s.pid = s.parent.id
	}
	t.depth++
	s.start = t.tr.now()
}

func (t *track) end() {
	if t == nil {
		return
	}
	end := t.tr.now()
	t.depth--
	s := &t.stack[t.depth]
	dur := end - s.start
	var cross, busiest int64
	for _, v := range s.byTrack {
		cross += v
		if v > busiest {
			busiest = v
		}
	}
	covered := s.same + cross
	if s.parallel {
		covered = s.same + busiest
	}
	self := dur - covered
	if self < 0 {
		self = 0
	}
	a := &t.agg[s.name]
	a.calls++
	a.total += dur
	a.self += self
	a.busy += cross
	if len(t.raw) < maxRaw {
		t.raw = append(t.raw, rawSpan{Name: t.tr.names[s.name], ID: s.id, Parent: s.pid, Track: t.id, Start: s.start, End: end})
	} else {
		t.dropped++
	}
	if p := s.parent; p != nil {
		if s.ptrack == t.id {
			p.same += dur
		} else {
			p.byTrack[t.id] += dur
		}
	}
}

// add counts n events under name without timing them.
func (t *track) add(name int, n int64) {
	if t == nil {
		return
	}
	t.agg[name].calls += n
}

// totals merges every track's aggregates by span name and zeroes them,
// so the setup and the passes of a traced run are accounted apart.
func (tr *tracer) totals() map[string]agg {
	out := map[string]agg{}
	for _, t := range tr.tracks {
		for id, a := range t.agg {
			if a == (agg{}) {
				continue
			}
			o := out[tr.names[id]]
			o.calls += a.calls
			o.total += a.total
			o.self += a.self
			o.busy += a.busy
			out[tr.names[id]] = o
			t.agg[id] = agg{}
		}
	}
	return out
}

// writeSpans writes every recorded span as one JSON object per line
// and reports how many were dropped over the in-memory cap.
func (tr *tracer) writeSpans(path string) (written, dropped int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tr.tracks {
		dropped += t.dropped
		for _, r := range t.raw {
			if err := enc.Encode(r); err != nil {
				f.Close()
				return written, dropped, err
			}
			written++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return written, dropped, err
	}
	return written, dropped, f.Close()
}

// printSelfTable writes the per-span self-time table, sorted by share
// of the traced wall time. Shares can sum past 100% where channels ran
// in parallel.
func printSelfTable(w io.Writer, spans map[string]agg, wall time.Duration) {
	type row struct {
		name string
		a    agg
	}
	var rows []row
	for name, a := range spans {
		if a.total > 0 {
			rows = append(rows, row{name, a})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].a.self != rows[j].a.self {
			return rows[i].a.self > rows[j].a.self
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintf(w, "%-36s %12s %12s %8s\n", "span", "calls", "self s", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %12d %12.4f %7.2f%%\n", r.name, r.a.calls,
			float64(r.a.self)/1e9, 100*float64(r.a.self)/float64(wall))
	}
}
