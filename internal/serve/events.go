package serve

import (
	"sync"

	"repro/internal/obs"
)

// Event type tags of the SSE progress stream.
const (
	// EventState marks a lifecycle transition (running, done, failed,
	// canceled); terminal states complete the stream.
	EventState = "state"
	// EventGP is one λ round of global placement (obs.GPRound payload).
	EventGP = "gp"
	// EventRoute is one global-routing round (obs.RouteRound payload).
	EventRoute = "route"
)

// Event is one message of a job's progress stream. Seq is assigned by the
// broker and doubles as the SSE event id, so clients can resume with
// ?from=<seq+1> after a dropped connection.
type Event struct {
	Seq   int    `json:"seq"`
	Type  string `json:"type"`
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Cached marks a terminal state served from the artifact store.
	Cached bool `json:"cached,omitempty"`
	// Worker attributes the event to the fleet worker that produced it
	// (set by the fleet coordinator on stitched streams; empty on
	// single-node streams).
	Worker string          `json:"worker,omitempty"`
	GP     *obs.GPRound    `json:"gp,omitempty"`
	Route  *obs.RouteRound `json:"route,omitempty"`
}

// Broker is a per-job publish/subscribe hub with full history: events are
// appended to an ordered log and subscribers follow the log by index, so
// any number of SSE clients can attach at any time, replay from any
// sequence number, and never miss or reorder an event. Publishing never
// blocks on slow consumers — readers pull at their own pace. The fleet
// coordinator stitches the events of every assignment attempt of a job
// into one Broker, so ?from= replay is gapless across reassignments.
type Broker struct {
	// persist, when non-nil, journals every published event. It is set
	// before the first publish and called under mu, so the on-disk log
	// order matches the in-memory log. Immutable afterwards.
	persist func(Event)

	mu     sync.Mutex
	events []Event
	done   bool
	// sig is closed (and replaced) on every publish and on Close —
	// a broadcast that wakes all waiting subscribers. Waiting on a
	// channel rather than a sync.Cond lets subscribers select against
	// their client's disconnect at the same time.
	sig chan struct{}
}

// NewBroker returns an empty, open event log.
func NewBroker() *Broker {
	return &Broker{sig: make(chan struct{})}
}

// newBrokerFrom preloads a broker with a recovered event log. Sequence
// numbers are reassigned from the log position, so events published after
// a restart continue exactly where the journal stopped and SSE ?from=
// offsets stay valid across the restart.
func newBrokerFrom(events []Event) *Broker {
	b := NewBroker()
	for i := range events {
		events[i].Seq = i
	}
	b.events = events
	return b
}

// Publish appends e to the log (assigning its Seq) and wakes subscribers.
// Events published after Close are dropped.
func (b *Broker) Publish(e Event) {
	b.mu.Lock()
	if b.done {
		b.mu.Unlock()
		return
	}
	e.Seq = len(b.events)
	b.events = append(b.events, e)
	if b.persist != nil {
		b.persist(e)
	}
	close(b.sig)
	b.sig = make(chan struct{})
	b.mu.Unlock()
}

// publishObs converts a telemetry event into a stream event.
func (b *Broker) publishObs(e obs.Event) {
	switch {
	case e.GP != nil:
		b.Publish(Event{Type: EventGP, GP: e.GP})
	case e.Route != nil:
		b.Publish(Event{Type: EventRoute, Route: e.Route})
	}
}

// Close marks the log complete; subscribers drain and stop.
func (b *Broker) Close() {
	b.mu.Lock()
	if !b.done {
		b.done = true
		close(b.sig)
		b.sig = make(chan struct{})
	}
	b.mu.Unlock()
}

// Since returns the events from index `from` on, whether the stream is
// complete, and a channel that is closed on the next publish (or close).
// The returned slice aliases the log and must not be mutated.
func (b *Broker) Since(from int) (evs []Event, done bool, sig <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from < len(b.events) {
		evs = b.events[from:]
	}
	return evs, b.done, b.sig
}

// Len returns the number of published events.
func (b *Broker) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}
