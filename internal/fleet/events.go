package fleet

// Fleet-specific event types, alongside the serve.Event* types proxied
// from workers. The stitched stream of a reassigned job reads like:
//
//	state:queued → assign(w1) → state:running → gp… → requeue(w1, reason)
//	→ assign(w2) → state:running → gp… → state:done
const (
	// EventAssign marks the job being leased to Event.Worker.
	EventAssign = "assign"
	// EventRequeue marks the job being taken back from Event.Worker
	// (Event.Error carries the reason) and queued for reassignment.
	EventRequeue = "requeue"
)
