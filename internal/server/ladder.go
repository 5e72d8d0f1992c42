package server

// The overload degradation ladder. Admission control alone is binary — a
// request either gets a slot or bounces — which tells clients nothing about
// trend and keeps serving expensive kernel jobs right up to collapse. The
// ladder makes overload an explicit, observable state machine:
//
//	healthy ──sheds──▶ shedding ──sustained sheds──▶ degraded ──drain──▶ draining
//	   ▲                  │                             │
//	   └──── sustained successful admissions ◀──────────┘
//
// Shedding means the queue overflowed recently: 429s carry Retry-After and
// the state is visible on /readyz. Degraded means shedding persisted past
// DegradeAfterSheds consecutive sheds: the server stops accepting expensive
// kernel jobs (503 + Retry-After, body marked "degraded") while continuing
// to serve verify jobs, trading coverage breadth for tail latency. A run of
// RecoverAfterOK successful admissions with no shed walks the ladder back to
// healthy. Draining is terminal and entered only by Drain.

import (
	"sync"

	"defuse/telemetry"
)

// Ladder rungs, ordered by severity. The values are the state gauge's levels.
const (
	StateHealthy  = "healthy"
	StateShedding = "shedding"
	StateDegraded = "degraded"
	StateDraining = "draining"
)

// stateLevel maps a rung to its defuse_server_state gauge value.
func stateLevel(state string) float64 {
	switch state {
	case StateShedding:
		return 1
	case StateDegraded:
		return 2
	case StateDraining:
		return 3
	default:
		return 0
	}
}

// ladder is the overload state machine. Calls arrive from concurrent request
// handlers; the mutex is held only for counter arithmetic.
type ladder struct {
	mu         sync.Mutex
	state      string
	shedStreak int
	calmStreak int
	// degradeAfter / recoverAfter are the transition thresholds.
	degradeAfter int
	recoverAfter int
	// entered counts transitions into degraded over the process lifetime.
	entered int64

	// announce publishes transitions (health state, gauge, span). Called
	// outside the mutex? No — under it, transitions must serialize; the
	// sinks are atomic/lock-free.
	announce func(from, to, reason string)
}

func newLadder(degradeAfter, recoverAfter int, announce func(from, to, reason string)) *ladder {
	return &ladder{
		state:        StateHealthy,
		degradeAfter: degradeAfter,
		recoverAfter: recoverAfter,
		announce:     announce,
	}
}

// current returns the rung.
func (l *ladder) current() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// degradedEntered reports how many times the ladder reached degraded.
func (l *ladder) degradedEntered() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entered
}

// rejectKernel reports whether expensive kernel jobs are currently refused.
func (l *ladder) rejectKernel() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state == StateDegraded || l.state == StateDraining
}

func (l *ladder) set(to, reason string) {
	from := l.state
	if from == to {
		return
	}
	l.state = to
	if to == StateDegraded {
		l.entered++
	}
	if l.announce != nil {
		l.announce(from, to, reason)
	}
}

// noteShed records one queue overflow.
func (l *ladder) noteShed() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state == StateDraining {
		return
	}
	l.calmStreak = 0
	l.shedStreak++
	switch {
	case l.shedStreak >= l.degradeAfter:
		l.set(StateDegraded, "sustained queue overflow")
	case l.state == StateHealthy:
		l.set(StateShedding, "queue overflow")
	}
}

// noteAdmit records one successful admission (a slot was granted).
func (l *ladder) noteAdmit() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state == StateDraining || l.state == StateHealthy {
		return
	}
	l.calmStreak++
	if l.calmStreak >= l.recoverAfter {
		l.calmStreak = 0
		l.shedStreak = 0
		l.set(StateHealthy, "admissions recovered")
	}
}

// noteDrain moves to the terminal rung.
func (l *ladder) noteDrain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.set(StateDraining, "drain started")
}

// announceState builds the standard transition publisher: health state for
// /readyz, the defuse_server_state gauge, a server.state root point span,
// and a per-transition counter.
func announceState(obs *telemetry.Obs) func(from, to, reason string) {
	return func(from, to, reason string) {
		if obs == nil {
			return
		}
		obs.Health.SetState(to)
		if reg := obs.Metrics; reg != nil {
			reg.Gauge("defuse_server_state").Set(stateLevel(to))
			reg.Counter("defuse_server_state_changes_total",
				telemetry.Label{Key: "to", Value: to}).Inc()
		}
		obs.Tracer.Mark(telemetry.SpanContext{}, telemetry.EvServerState,
			telemetry.String("from", from), telemetry.String("to", to), telemetry.String("reason", reason))
	}
}
