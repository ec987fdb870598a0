package main

// Startup flag validation. Every contradictory flag combination is
// rejected here with a message naming the offending flags, before any
// model is loaded — an operator typo must fail fast at the command line,
// not panic inside the serving stack or be silently defaulted away.
//
// validateFlags is a pure function over a captured flagValues snapshot
// plus the set of flags the user explicitly passed (flag.Visit), so the
// whole matrix is unit-testable without mutating the global flag set.

import (
	"flag"
	"fmt"
	"time"

	"bitflow/internal/serve"
)

var (
	flagAutoscale = flag.Bool("autoscale", false,
		"enable the adaptive control loop: each model's replica count is retuned within the -autoscale-* bounds")
	flagAutoscaleInterval = flag.Duration("autoscale-interval", 0,
		"control-tick period (with -autoscale; 0 = 250ms)")
	flagAutoscaleMinReplicas = flag.Int("autoscale-min-replicas", 0,
		"replica floor (with -autoscale; 0 = 1)")
	flagAutoscaleMaxReplicas = flag.Int("autoscale-max-replicas", 0,
		"replica ceiling (with -autoscale; 0 = 2x -replicas)")
)

// flagValues is the snapshot validateFlags checks.
type flagValues struct {
	replicas       int
	requestTimeout time.Duration

	autoscale     bool
	asInterval    time.Duration
	asMinReplicas int
	asMaxReplicas int
}

func currentFlagValues() flagValues {
	return flagValues{
		replicas:       *flagReplicas,
		requestTimeout: *flagRequestTimeout,
		autoscale:      *flagAutoscale,
		asInterval:     *flagAutoscaleInterval,
		asMinReplicas:  *flagAutoscaleMinReplicas,
		asMaxReplicas:  *flagAutoscaleMaxReplicas,
	}
}

// explicitFlags records which flags the user actually passed.
func explicitFlags() map[string]bool {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// validateFlags rejects contradictory flag combinations. The replica
// bounds are checked against the static -replicas as well as against
// each other: the flags are the geometry the controller starts from and
// degrades to, so bounds that exclude them are an operator error, not
// something to clamp silently.
func validateFlags(v flagValues, set map[string]bool) error {
	if v.replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1 (got %d)", v.replicas)
	}
	if v.requestTimeout <= 0 {
		return fmt.Errorf("-request-timeout must be positive (got %v)", v.requestTimeout)
	}
	if !v.autoscale {
		for _, f := range []string{"autoscale-interval", "autoscale-min-replicas", "autoscale-max-replicas"} {
			if set[f] {
				return fmt.Errorf("-%s has no effect without -autoscale", f)
			}
		}
		return nil
	}

	if set["autoscale-interval"] && v.asInterval <= 0 {
		return fmt.Errorf("-autoscale-interval must be positive (got %v)", v.asInterval)
	}
	minSet, maxSet := set["autoscale-min-replicas"], set["autoscale-max-replicas"]
	switch {
	case minSet && v.asMinReplicas < 1:
		return fmt.Errorf("-autoscale-min-replicas must be at least 1 (got %d)", v.asMinReplicas)
	case maxSet && v.asMaxReplicas < 1:
		return fmt.Errorf("-autoscale-max-replicas must be at least 1 (got %d)", v.asMaxReplicas)
	case minSet && maxSet && v.asMinReplicas > v.asMaxReplicas:
		return fmt.Errorf("-autoscale-min-replicas %d exceeds -autoscale-max-replicas %d", v.asMinReplicas, v.asMaxReplicas)
	case minSet && v.asMinReplicas > v.replicas:
		return fmt.Errorf("-autoscale-min-replicas %d excludes the static -replicas %d the controller starts from", v.asMinReplicas, v.replicas)
	case maxSet && v.asMaxReplicas < v.replicas:
		return fmt.Errorf("-autoscale-max-replicas %d excludes the static -replicas %d the controller starts from", v.asMaxReplicas, v.replicas)
	}
	return nil
}

// effectiveMaxReplicas is the replica ceiling the oversubscription guard
// must assume: with -autoscale the controller may grow the set to the
// configured bound (defaulting to 2x the static count, mirroring
// serve's defaulting), so clamping against the static count would let a
// scale-up oversubscribe the cores at the worst possible moment.
func effectiveMaxReplicas(static int) int {
	if !*flagAutoscale {
		return static
	}
	if *flagAutoscaleMaxReplicas > 0 {
		return *flagAutoscaleMaxReplicas
	}
	return 2 * static
}

// autoscaleConfig maps the -autoscale-* flags onto serve's config; nil
// when the loop is off.
func autoscaleConfig() *serve.AutoscaleConfig {
	if !*flagAutoscale {
		return nil
	}
	return &serve.AutoscaleConfig{
		Interval:    *flagAutoscaleInterval,
		MinReplicas: *flagAutoscaleMinReplicas,
		MaxReplicas: *flagAutoscaleMaxReplicas,
	}
}
