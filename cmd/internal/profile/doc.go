// Package profile writes the pprof CPU and allocation profiles that the
// command-line tools offer through -cpuprofile and -memprofile. It lives
// under cmd/ so that profiling, which reads the wall clock, stays outside
// the checker's deterministic packages.
package profile
