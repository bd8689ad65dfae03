// Package sim provides a deterministic discrete-event simulation engine used
// by every timed substrate in this repository (the Trio chip model, the PISA
// pipeline model, links, fabric, and training workers).
//
// Time is virtual and measured in integer nanoseconds. Events scheduled for
// the same instant fire in scheduling order, which makes every simulation in
// the repository fully reproducible for a given seed.
//
// The scheduler (see engine.go) stores events by value in a slab with a free
// list, fronts its 4-ary heap with a timer wheel for near-horizon events, and
// offers an argument-passing schedule form (AtFunc/AfterFunc/EveryFunc) so
// hot paths pay zero allocations per event in steady state. Every schedule
// returns a cancellable Handle.
package sim

import "time"

// Time is a virtual timestamp in nanoseconds since the start of a simulation.
type Time int64

// Common durations expressed in simulation time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns the timestamp as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds returns the timestamp as floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns the timestamp as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string { return time.Duration(t).String() }
