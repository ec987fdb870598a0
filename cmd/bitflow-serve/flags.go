package main

// Startup flag validation. Every invalid flag value is rejected here with
// a message naming the offending flag, before any model is loaded — an
// operator typo must fail fast at the command line, not panic inside the
// serving stack or be silently defaulted away.
//
// validateFlags is a pure function over a captured flagValues snapshot,
// so it is unit-testable without mutating the global flag set.

import (
	"fmt"
	"time"
)

// flagValues is the snapshot validateFlags checks.
type flagValues struct {
	replicas       int
	requestTimeout time.Duration
}

func currentFlagValues() flagValues {
	return flagValues{
		replicas:       *flagReplicas,
		requestTimeout: *flagRequestTimeout,
	}
}

// validateFlags rejects flag values the serving stack cannot honour.
func validateFlags(v flagValues) error {
	if v.replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1 (got %d)", v.replicas)
	}
	if v.requestTimeout <= 0 {
		return fmt.Errorf("-request-timeout must be positive (got %v)", v.requestTimeout)
	}
	return nil
}
