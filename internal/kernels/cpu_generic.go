//go:build !amd64 || purego

package kernels

// No assembly tiers in this build: every Width resolves to the pure-Go
// kernel.
const hasAVX2, hasAVX512 = false, false
