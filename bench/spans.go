package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanLog keeps the traced run's spans in memory and writes them out once,
// when the run ends, as Chrome trace-event JSON (opens offline in Perfetto).
// A nil *spanLog records nothing, so untraced rounds run the same code.
type spanLog struct {
	mu     sync.Mutex
	t0     time.Time
	next   int
	lanes  []bool // lanes[i] is true while a span occupies track i
	events []traceEvent
}

// traceEvent is one complete ("X") event; times are microseconds.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args spanAttrs `json:"args"`
}

// spanAttrs links a span to its round and to the span that caused it. Ids
// are round-scoped ("r3.17"), so one round's spans share a prefix.
type spanAttrs struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Round  int    `json:"round"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// span is an open span; end closes it.
type span struct {
	log   *spanLog
	name  string
	cat   string
	attrs spanAttrs
	start time.Time
	lane  int
}

// begin opens a span on the lowest free track, so concurrent spans stack on
// separate tracks and sequential ones reuse track 0. parent is the id of the
// span that caused this one ("" for none).
func (l *spanLog) begin(name, cat string, round int, parent string) *span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	sp := &span{log: l, name: name, cat: cat, start: time.Now(), lane: len(l.lanes)}
	sp.attrs = spanAttrs{ID: fmt.Sprintf("r%d.%d", round, l.next), Parent: parent, Round: round}
	for i, busy := range l.lanes {
		if !busy {
			sp.lane = i
			break
		}
	}
	if sp.lane == len(l.lanes) {
		l.lanes = append(l.lanes, false)
	}
	l.lanes[sp.lane] = true
	return sp
}

// id is the span's id ("" for a nil span).
func (sp *span) id() string {
	if sp == nil {
		return ""
	}
	return sp.attrs.ID
}

// end closes the span and records it.
func (sp *span) end() {
	if sp == nil {
		return
	}
	now := time.Now()
	l := sp.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lanes[sp.lane] = false
	l.events = append(l.events, traceEvent{
		Name: sp.name,
		Cat:  sp.cat,
		Ph:   "X",
		Ts:   float64(sp.start.Sub(l.t0).Nanoseconds()) / 1e3,
		Dur:  float64(now.Sub(sp.start).Nanoseconds()) / 1e3,
		Pid:  1,
		Tid:  sp.lane,
		Args: sp.attrs,
	})
}

// write stores the recorded spans at path.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{l.events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
