// Package core exercises the atomicfield analyzer on counter blocks held in
// arrays: a struct whose only atomics sit in an array field, embedded in
// turn as an array of such structs. The array fields must propagate the
// no-copy property to the structs that embed them.
package core

import "sync/atomic"

// counterBlock is a block of counters: one goroutine stores, the sampler
// loads, nobody locks.
type counterBlock struct {
	Counts [4]atomic.Uint64
}

// engine owns the mirrors; both the direct atomic field and the mirror
// array make it a guarded struct.
type engine struct {
	Appended atomic.Uint64
	Mirrors  [2]counterBlock
}

// Good drains through pointers and the atomic API only.
func Good(e *engine) uint64 {
	e.Appended.Add(1)
	m := &e.Mirrors[0]
	m.Counts[1].Store(7)
	return m.Counts[1].Load()
}

// Bad reads an atomic field as a plain value and copies mirror blocks.
func Bad(e *engine) uint64 {
	v := e.Appended   // want `field engine.Appended has atomic type`
	m := e.Mirrors[0] // want `assignment copies counterBlock by value`
	snap := *e        // want `assignment copies engine by value`
	return v.Load() + m.Counts[0].Load() + snap.Appended.Load()
}

// Sweep copies each mirror out of the array while summing.
func Sweep(e *engine) uint64 {
	var total uint64
	for _, m := range e.Mirrors { // want `range copies counterBlock by value`
		total += m.Counts[0].Load()
	}
	return total
}

// Merge takes a mirror block by value.
func Merge(m counterBlock) uint64 { // want `parameter takes counterBlock by value`
	return m.Counts[0].Load()
}

// Snapshot copies a mirror through a return value.
func Snapshot(e *engine) counterBlock { // want `result returns counterBlock by value`
	return e.Mirrors[1] // want `return copies counterBlock by value`
}
