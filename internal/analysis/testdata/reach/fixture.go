// Package main is a seeded-violation fixture for the reach rule, loaded
// under the fake import path "fixture/cmd/reach". Its main is the only
// program root; every function without a want marker must be reached
// from main, init, a var initializer, an external interface or a keep.
package main

import (
	"fmt"

	"bitflow/internal/exec"
)

var table = map[string]func(){"fromVar": fromVarInit}

func init() { fromInit() }

func main() {
	live()
	run(byReference)
	exec.Serial().ParallelFor(2, (&counter{}).add)
	fmt.Println(value{})
	table["fromVar"]()
}

func live() {}

// run calls a function value; what it runs is reached by reference.
func run(f func()) { f() }

func byReference() { calledFromReference() }

func calledFromReference() {}

func fromVarInit() {}

func fromInit() {}

type counter struct{ n int }

// add is only ever a method value handed to ParallelFor.
func (c *counter) add(start, end int) { c.n += end - start }

type value struct{}

// String satisfies fmt.Stringer, which fmt calls on the module's behalf.
func (value) String() string { return "value" }

func dead() { calledFromDead() } // want:reach

// calledFromDead has a caller, but no live one.
func calledFromDead() {} // want:reach

type shape interface{ area() int }

type square struct{}

// area implements a module interface nothing calls through.
func (square) area() int { return 1 } // want:reach

//bitflow:keep fixture: a justified exception is a root
func kept() { calledFromKept() }

func calledFromKept() {}

//bitflow:keep
func bareKeep() {} // want:reach

// misspelt's marker is no analyzer's hatch: it is a finding of its own
// and keeps nothing alive.
//
//bitflow:kepp fixture: a misspelt keep // want:directive
func misspelt() {} // want:reach

var _ shape = square{}
