// Package rawgo is a seeded-violation fixture: loaded by the tests under
// the fake import path "fixture/internal/core" (not a concurrency-owner
// package), so every raw goroutine below must be flagged. Lines carry
// "// want:<analyzer>" markers the test harness checks exactly.
//
//bitflow:keep fixture: the rawgo test feeds these functions straight to the analyzers
package rawgo

import "sync"

func fanOutRaw(work []int) {
	done := make(chan struct{})
	for range work {
		go func() { done <- struct{}{} }() // want:rawgo
	}
	for range work {
		<-done
	}
}

func fanOutWaitGroup(work []int) {
	var wg sync.WaitGroup // want:rawgo
	for range work {
		wg.Add(1)
		go func() { wg.Done() }() // want:rawgo
	}
	wg.Wait()
}

// fanOutExcused shows the escape hatch: a justified //bitflow:go-ok is
// accepted...
func fanOutExcused() {
	//bitflow:go-ok fixture: deliberate long-lived helper goroutine
	go func() {}()
}

// fanOutBareExcuse shows that an empty justification is itself flagged.
func fanOutBareExcuse() {
	//bitflow:go-ok
	go func() {}() // want:rawgo
}

// serialIsFine is the fixed form: no goroutines, nothing flagged.
func serialIsFine(work []int) int {
	total := 0
	for _, w := range work {
		total += w
	}
	return total
}
